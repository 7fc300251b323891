"""Tests for the subscription system (the paper's Alerter)."""

from repro.core import diff
from repro.versioning import Alerter, Subscription, VersionStore
from repro.xmlkit import parse


def run_alerter(old_text, new_text, *subscriptions):
    old = parse(old_text)
    new = parse(new_text)
    delta = diff(old, new)
    alerter = Alerter()
    for subscription in subscriptions:
        alerter.register(subscription)
    return alerter.process(delta, new, doc_id="doc", old_document=old)


class TestInsertSubscriptions:
    def test_new_product_alert(self):
        # the paper's canonical example: a new product enters the catalog
        alerts = run_alerter(
            "<catalog><product><name>a</name></product></catalog>",
            "<catalog><product><name>a</name></product>"
            "<product><name>b</name></product></catalog>",
            Subscription("new-products", "/catalog/product"),
        )
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.subscription == "new-products"
        assert alert.kind == "insert"
        assert alert.text == "b"
        assert alert.label_path == "/catalog/product"

    def test_nested_pattern_matches_payload_children(self):
        alerts = run_alerter(
            "<catalog/>",
            "<catalog><product><name>x</name></product></catalog>",
            Subscription("names", "//product/name"),
        )
        assert len(alerts) == 1
        assert alerts[0].text == "x"

    def test_no_alert_without_match(self):
        alerts = run_alerter(
            "<catalog/>",
            "<catalog><other/></catalog>",
            Subscription("new-products", "/catalog/product"),
        )
        assert alerts == []

    def test_predicate_filters(self):
        cheap = Subscription(
            "cheap",
            "//price/#text",
            kinds=("insert", "update"),
            predicate=lambda text: text.startswith("$") and
            float(text[1:]) < 100,
        )
        alerts = run_alerter(
            "<shop><item><price>$500</price></item></shop>",
            "<shop><item><price>$500</price></item>"
            "<item><price>$50</price></item></shop>",
            cheap,
        )
        assert len(alerts) == 1
        assert alerts[0].text == "$50"


class TestOtherKinds:
    def test_update_subscription(self):
        alerts = run_alerter(
            "<shop><item><price>$5</price><name>stable name</name></item></shop>",
            "<shop><item><price>$9</price><name>stable name</name></item></shop>",
            Subscription("price-watch", "//price/#text", kinds=("update",)),
        )
        assert len(alerts) == 1
        assert alerts[0].kind == "update"
        assert alerts[0].text == "$9"

    def test_delete_subscription_uses_old_paths(self):
        alerts = run_alerter(
            "<catalog><discontinued><product><name>old thing here</name>"
            "</product></discontinued><rest>keep this part</rest></catalog>",
            "<catalog><rest>keep this part</rest></catalog>",
            Subscription("drops", "//product", kinds=("delete",)),
        )
        assert len(alerts) == 1
        assert alerts[0].kind == "delete"

    def test_move_subscription(self):
        alerts = run_alerter(
            "<c><new><p><n>zz99 thing</n></p></new><sale/></c>",
            "<c><new/><sale><p><n>zz99 thing</n></p></sale></c>",
            Subscription("moved", "//p", kinds=("move",)),
        )
        assert len(alerts) == 1
        assert alerts[0].kind == "move"
        assert alerts[0].label_path == "/c/sale/p"

    def test_attribute_subscription(self):
        alerts = run_alerter(
            "<c><p status='new'><n>same thing</n></p></c>",
            "<c><p status='sale'><n>same thing</n></p></c>",
            Subscription("status", "//p", kinds=("attr-update",)),
        )
        assert len(alerts) == 1
        assert alerts[0].kind == "attr-update"


class TestManagement:
    def test_multiple_subscriptions_multiple_alerts(self):
        alerts = run_alerter(
            "<c/>",
            "<c><p><n>a</n></p></c>",
            Subscription("s1", "//p"),
            Subscription("s2", "//n"),
        )
        assert {a.subscription for a in alerts} == {"s1", "s2"}

    def test_unregister(self):
        alerter = Alerter()
        subscription = alerter.register(Subscription("s1", "//p"))
        alerter.subscriptions.remove(subscription)
        old = parse("<c/>")
        new = parse("<c><p/></c>")
        assert alerter.process(diff(old, new), new) == []

    def test_store_integration_via_on_commit(self):
        alerter = Alerter()
        alerter.register(Subscription("new-products", "//product"))
        collected = []
        store = VersionStore(
            on_commit=lambda doc_id, delta, new: collected.extend(
                alerter.process(delta, new, doc_id=doc_id)
            )
        )
        store.create("cat", parse("<catalog/>"))
        store.commit(
            "cat", parse("<catalog><product><name>n</name></product></catalog>")
        )
        assert len(collected) == 1
        assert collected[0].doc_id == "cat"
