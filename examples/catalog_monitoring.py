"""Catalog monitoring: the paper's subscription scenario end to end.

Section 2's motivating use case — "detect changes of interest in XML
documents, e.g., that a new product has been added to a catalog" — wired
up the way Figure 1 shows: a version store runs the diff on every commit,
and the Alerter matches the resulting deltas against standing
subscriptions.  The script checks every alert against the delta that
raised it: a ``new-products`` alert names a product the delta inserted,
and a ``price-watch`` alert names a price text the delta updated.

Run:  python examples/catalog_monitoring.py
"""

from repro.simulator import SimulatorConfig, generate_catalog, simulate_changes
from repro.versioning import Alerter, Subscription, VersionStore
from repro.xmlkit import preorder


def main() -> None:
    # --- set up the warehouse ------------------------------------------------
    alerter = Alerter()
    alerter.register(
        Subscription("new-products", "/catalog/category/product")
    )
    alerter.register(
        Subscription(
            "price-watch",
            "//product/price/#text",
            kinds=("update",),
        )
    )
    alerter.register(
        Subscription(
            "big-discounts",
            "//product/price/#text",
            kinds=("insert", "update"),
            predicate=lambda text: text.startswith("$")
            and _dollars(text) < 20,
        )
    )

    # (delta, the alerts it raised) per commit, in commit order.
    commits = []

    def on_commit(doc_id, delta, new_document):
        commits.append(
            (delta, alerter.process(delta, new_document, doc_id=doc_id))
        )

    store = VersionStore(on_commit=on_commit)

    # --- week 0: the catalog enters the warehouse -----------------------------
    catalog = generate_catalog(products=25, categories=4, seed=42)
    store.create("camera-shop", catalog)
    print(f"version 1 stored: {catalog.subtree_size() - 1} nodes")

    # --- weeks 1..3: the shop changes, the crawler brings new versions --------
    current = catalog
    for week in range(1, 4):
        result = simulate_changes(
            current,
            SimulatorConfig(
                delete_probability=0.04,
                update_probability=0.12,
                insert_probability=0.06,
                move_probability=0.03,
                seed=1000 + week,
            ),
        )
        current = result.new_document
        delta = store.commit("camera-shop", current)
        print(
            f"week {week}: committed version {delta.target_version} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(delta.summary().items())) or 'no changes'})"
        )

    # --- what did the subscriptions catch? -----------------------------------
    print(f"\n{sum(len(raised) for _, raised in commits)} alerts:")
    by_subscription = {}
    for delta, raised in commits:
        for alert in raised:
            by_subscription.setdefault(alert.subscription, []).append(
                (delta.target_version, alert)
            )
    for name, group in sorted(by_subscription.items()):
        print(f"  {name}: {len(group)}")
        for version, alert in group[:3]:
            preview = alert.text[:50] + ("..." if len(alert.text) > 50 else "")
            print(f"    v{version} {alert.kind:11s} {alert.label_path}  {preview!r}")

    # --- every alert is backed by its week's delta ----------------------------
    for delta, raised in commits:
        inserted = {
            node.xid: node
            for operation in delta.operations
            if operation.kind == "insert"
            for node in preorder(operation.subtree)
        }
        updated = {
            operation.xid
            for operation in delta.operations
            if operation.kind == "update"
        }
        for alert in raised:
            if alert.subscription == "new-products":
                assert alert.kind == "insert"
                assert inserted[alert.xid].label == "product"
            elif alert.subscription == "price-watch":
                assert alert.kind == "update"
                assert alert.xid in updated
    assert {"new-products", "price-watch"} <= set(by_subscription)
    print("\nalert check: every alert names a change in its week's delta  OK")

    # --- and the whole history is still reachable ------------------------------
    assert store.verify_integrity("camera-shop")
    v1 = store.get_version("camera-shop", 1)
    assert v1.deep_equal(catalog)
    print("history check: version 1 reconstructs bit-exact from deltas  OK")


def _dollars(text: str) -> float:
    try:
        return float(text.lstrip("$"))
    except ValueError:
        return float("inf")


if __name__ == "__main__":
    main()
