"""Quickstart: diff two XML documents, inspect and apply the delta.

This walks the example the paper itself uses (Figure 2): a product
catalog where one product is discontinued, another moves into the
Discount section with a new price, and a brand-new product appears.
Then it addresses a changed node by its path, and shows what a DTD's
ID attributes change: BULD's first phase matches nodes by their IDs.

Run:  python examples/quickstart.py
"""

from repro import apply_delta, diff, parse
from repro.core import apply_backward, delta_byte_size, serialize_delta
from repro.xmlkit import node_at_path, parse_dtd

OLD = """\
<Category>
  <Title>Digital Cameras</Title>
  <Discount>
    <Product><Name>tx123</Name><Price>$499</Price></Product>
  </Discount>
  <NewProducts>
    <Product><Name>zy456</Name><Price>$799</Price></Product>
  </NewProducts>
</Category>"""

NEW = """\
<Category>
  <Title>Digital Cameras</Title>
  <Discount>
    <Product><Name>zy456</Name><Price>$699</Price></Product>
  </Discount>
  <NewProducts>
    <Product><Name>abc</Name><Price>$899</Price></Product>
  </NewProducts>
</Category>"""

#: Two products trade their names and prices, but keep their SKUs.
SHOP_OLD = (
    '<Shop><Product sku="tx123"><Name>Camera</Name><Price>$499</Price>'
    '</Product><Product sku="zy456"><Name>Lens</Name><Price>$799</Price>'
    "</Product></Shop>"
)
SHOP_NEW = (
    '<Shop><Product sku="tx123"><Name>Lens</Name><Price>$799</Price>'
    '</Product><Product sku="zy456"><Name>Camera</Name><Price>$499</Price>'
    "</Product></Shop>"
)


def main() -> None:
    old = parse(OLD)
    new = parse(NEW)

    # The one-call API: BULD matching + delta construction.
    delta = diff(old, new)

    print("operations found:")
    for operation in delta:
        print(f"  {operation!r}")
    print()
    print(f"operation counts: {delta.summary()}")
    print(f"delta size:       {delta_byte_size(delta)} bytes")
    print()
    print("delta as XML (how Xyleme stores it):")
    print(serialize_delta(delta))
    print()

    # Completed deltas replay in both directions.
    forward = apply_delta(delta, old, verify=True)
    assert forward.deep_equal(new)
    print("applied forward:  old + delta == new   OK")

    backward = apply_backward(delta, new, verify=True)
    assert backward.deep_equal(old)
    print("applied backward: new - delta == old   OK")
    print()

    # A path addresses a node for people; node_at_path resolves it.
    price = node_at_path(new, "/Category/Discount/Product/Price")
    print(f"the discounted price is now {price.children[0].value}")
    print()

    # By content, the two products swapped SKUs; declared as an ID,
    # the SKU keeps each product itself, and its name and price change.
    dtd = parse_dtd("<!ATTLIST Product sku ID #REQUIRED>")
    by_content = diff(parse(SHOP_OLD), parse(SHOP_NEW))
    by_id = diff(parse(SHOP_OLD, dtd=dtd), parse(SHOP_NEW, dtd=dtd))
    print(f"without the DTD: {by_content.summary()}")
    print(f"with the DTD:    {by_id.summary()}")
    assert by_id.summary() == {"update": 4}


if __name__ == "__main__":
    main()
