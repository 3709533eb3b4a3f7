"""Seeded TPC-H-shaped data generator.

Not a byte-faithful ``dbgen`` port: it generates the columns the nine
workloads consume, with the distributional features that drive
sensitivity analysis:

* **skewed multiplicities** — lineitems-per-order, orders-per-customer
  and lineitems-per-supplier follow truncated Zipf-like laws, so the
  max-frequency metadata FLEX uses is far above the typical value;
* **selective filters** — order/supplier comments contain the TPC-H
  LIKE patterns with configurable probability; dates span 1992-1998;
* **determinism** — everything derives from one seed, so a dataset is
  reproducible and neighbouring datasets can be constructed exactly.

Example:
    >>> tables = TPCHGenerator(TPCHConfig(scale_rows=2000, seed=7)).generate()
    >>> sorted(tables) == ['customer', 'lineitem', 'nation', 'orders',
    ...                    'part', 'partsupp', 'region', 'supplier']
    True
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.common.rng import make_rng

Row = Dict[str, Any]

NATION_NAMES = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]
REGION_NAMES = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
# nationkey -> regionkey, loosely following TPC-H.
NATION_REGION = [0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2,
                 3, 4, 2, 3, 3, 1]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
TYPE_ADJ = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_FIN = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_MAT = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]

_DATE_START = datetime.date(1992, 1, 1)
_DATE_DAYS = 2557  # through 1998-12-31


@dataclass(frozen=True)
class TPCHConfig:
    """Scaling knobs for the generator.

    Attributes:
        scale_rows: target number of lineitem rows; the other tables are
            derived from it (orders ~ scale/4, customers ~ orders/8, ...).
        seed: master seed.
        special_comment_rate: fraction of order comments matching the
            Q13 '%special%requests%' pattern.
        complaint_rate: fraction of supplier comments matching the
            Q16 '%Customer%Complaints%' pattern.
        zipf_s: skew exponent for multiplicity distributions; higher
            means heavier head (more extreme max frequencies).
    """

    scale_rows: int = 20_000
    seed: int = 0
    special_comment_rate: float = 0.35
    complaint_rate: float = 0.05
    zipf_s: float = 1.3

    def __post_init__(self) -> None:
        if self.scale_rows < 100:
            raise ValueError("scale_rows must be at least 100")


class TPCHGenerator:
    """Generates all eight tables from a :class:`TPCHConfig`."""

    def __init__(self, config: TPCHConfig):
        self.config = config

    # -- public ------------------------------------------------------------

    def generate(self) -> Dict[str, List[Row]]:
        cfg = self.config
        n_orders = max(20, cfg.scale_rows // 4)
        n_customers = max(10, n_orders // 8)
        n_parts = max(20, cfg.scale_rows // 20)
        n_suppliers = max(10, cfg.scale_rows // 40)

        tables: Dict[str, List[Row]] = {}
        tables["region"] = self._regions()
        tables["nation"] = self._nations()
        tables["supplier"] = self._suppliers(n_suppliers)
        tables["customer"] = self._customers(n_customers)
        tables["part"] = self._parts(n_parts)
        tables["partsupp"] = self._partsupps(n_parts, n_suppliers)
        tables["orders"] = self._orders(n_orders, n_customers)
        tables["lineitem"] = self._lineitems(
            cfg.scale_rows, tables["orders"], n_parts, n_suppliers
        )
        return tables

    # -- helpers -------------------------------------------------------------

    def _rng(self, label: str):
        return make_rng(self.config.seed, f"tpch-{label}")

    def _zipf_index(self, rng, n: int) -> int:
        """Draw an index in [0, n) with a Zipf(s) head at low indices."""
        # Inverse-CDF on the truncated zeta distribution, approximated by
        # the continuous power law: cheap and seedable.
        s = self.config.zipf_s
        u = rng.random()
        if abs(s - 1.0) < 1e-9:
            value = math.exp(u * math.log(n + 1.0)) - 1.0
        else:
            top = (n + 1.0) ** (1.0 - s) - 1.0
            value = (1.0 + u * top) ** (1.0 / (1.0 - s)) - 1.0
        return min(n - 1, max(0, int(value)))

    @staticmethod
    def _random_date(rng) -> datetime.date:
        return _DATE_START + datetime.timedelta(days=rng.randrange(_DATE_DAYS))

    # -- per-table generators -------------------------------------------------

    def _regions(self) -> List[Row]:
        return [
            {"r_regionkey": i, "r_name": name}
            for i, name in enumerate(REGION_NAMES)
        ]

    def _nations(self) -> List[Row]:
        return [
            {
                "n_nationkey": i,
                "n_name": name,
                "n_regionkey": NATION_REGION[i],
            }
            for i, name in enumerate(NATION_NAMES)
        ]

    def _suppliers(self, n: int) -> List[Row]:
        rng = self._rng("supplier")
        rows = []
        for key in range(1, n + 1):
            complaint = rng.random() < self.config.complaint_rate
            comment = (
                "slow delivery: Customer unhappy Complaints pending"
                if complaint
                else "dependable deliveries, quiet accounts"
            )
            rows.append(
                {
                    "s_suppkey": key,
                    "s_name": f"Supplier#{key:09d}",
                    "s_nationkey": rng.randrange(len(NATION_NAMES)),
                    "s_acctbal": round(rng.uniform(-999.99, 9999.99), 2),
                    "s_comment": comment,
                }
            )
        return rows

    def _customers(self, n: int) -> List[Row]:
        rng = self._rng("customer")
        return [
            {
                "c_custkey": key,
                "c_name": f"Customer#{key:09d}",
                "c_nationkey": rng.randrange(len(NATION_NAMES)),
                "c_mktsegment": rng.choice(SEGMENTS),
            }
            for key in range(1, n + 1)
        ]

    def _parts(self, n: int) -> List[Row]:
        rng = self._rng("part")
        rows = []
        for key in range(1, n + 1):
            p_type = " ".join(
                (rng.choice(TYPE_ADJ), rng.choice(TYPE_FIN), rng.choice(TYPE_MAT))
            )
            rows.append(
                {
                    "p_partkey": key,
                    "p_name": f"part {key}",
                    "p_brand": f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}",
                    "p_type": p_type,
                    "p_size": rng.randrange(1, 51),
                }
            )
        return rows

    def _partsupps(self, n_parts: int, n_suppliers: int) -> List[Row]:
        rng = self._rng("partsupp")
        rows = []
        for partkey in range(1, n_parts + 1):
            # 2-4 suppliers per part, drawn uniformly: the per-supplier
            # stock counts come out binomial (near-normal), which is the
            # influence shape the paper reports for Q11/Q16.
            count = rng.randrange(2, 5)
            chosen = set()
            while len(chosen) < count:
                chosen.add(1 + rng.randrange(n_suppliers))
            for suppkey in sorted(chosen):
                rows.append(
                    {
                        "ps_partkey": partkey,
                        "ps_suppkey": suppkey,
                        "ps_availqty": rng.randrange(1, 10_000),
                        "ps_supplycost": round(rng.uniform(1.0, 1000.0), 2),
                    }
                )
        return rows

    def _orders(self, n_orders: int, n_customers: int) -> List[Row]:
        rng = self._rng("orders")
        rows = []
        for key in range(1, n_orders + 1):
            special = rng.random() < self.config.special_comment_rate
            comment = (
                "was told to expedite the special packages and requests"
                if special
                else "ordinary pending packages sleep furiously"
            )
            rows.append(
                {
                    "o_orderkey": key,
                    # Uniform over customers: orders-per-customer is then
                    # binomial (near-normal influence for Q13), with the
                    # max frequency FLEX reads still well above typical.
                    "o_custkey": 1 + rng.randrange(n_customers),
                    "o_orderstatus": rng.choice(["F", "F", "O", "P"]),
                    "o_orderdate": self._random_date(rng),
                    "o_orderpriority": rng.choice(PRIORITIES),
                    "o_comment": comment,
                }
            )
        return rows

    def _lineitems(
        self,
        target_rows: int,
        orders: List[Row],
        n_parts: int,
        n_suppliers: int,
    ) -> List[Row]:
        rng = self._rng("lineitem")
        rows: List[Row] = []
        order_index = 0
        while len(rows) < target_rows:
            order = orders[order_index % len(orders)]
            order_index += 1
            # 1-7 lineitems per order, mildly Zipf-skewed: Q4's influence
            # values stay small and discrete, while FLEX's max-frequency
            # metadata still reads the worst case.
            count = 1 + self._zipf_index(rng, 7)
            base_date = order["o_orderdate"]
            for linenumber in range(1, count + 1):
                ship = base_date + datetime.timedelta(days=rng.randrange(1, 121))
                commit = base_date + datetime.timedelta(days=rng.randrange(60, 151))
                receipt = ship + datetime.timedelta(days=rng.randrange(1, 31))
                quantity = float(rng.randrange(1, 51))
                price = round(quantity * rng.uniform(900.0, 1100.0), 2)
                rows.append(
                    {
                        "l_orderkey": order["o_orderkey"],
                        "l_linenumber": linenumber,
                        "l_partkey": 1 + rng.randrange(n_parts),
                        # Zipf over suppliers: a few supply very many items.
                        "l_suppkey": 1 + self._zipf_index(rng, n_suppliers),
                        "l_quantity": quantity,
                        "l_extendedprice": price,
                        "l_discount": round(rng.randrange(0, 11) / 100.0, 2),
                        "l_tax": round(rng.randrange(0, 9) / 100.0, 2),
                        "l_returnflag": rng.choice(["A", "N", "R"]),
                        "l_linestatus": rng.choice(["F", "O"]),
                        "l_shipdate": ship,
                        "l_commitdate": commit,
                        "l_receiptdate": receipt,
                        "l_shipmode": rng.choice(SHIPMODES),
                    }
                )
        del rows[target_rows:]
        return rows


def register_tables(session, tables: Dict[str, List[Row]]) -> None:
    """Register every generated table in a SQL session's catalog."""
    from repro.tpch.schema import ALL_SCHEMAS

    for name, rows in tables.items():
        session.create_table(name, rows, ALL_SCHEMAS.get(name))
