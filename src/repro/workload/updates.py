"""Update workload: mutations applied at the master during experiments.

Directories are read-mostly (§1) but the update-traffic experiments
(Figures 6/7) need a realistic modification stream:

* benign employee modifies (phone, title, location) — the entry stays
  in whatever filter content it was in (``Es11``);
* department reassignments — the entry moves across department-filter
  contents (``Es01``/``Es10`` for ``(&(dept=..)(div=..))`` filters);
* hires (adds) and leaves (deletes) of employees;
* occasional renames (modifyDN) — the §5.2 delete-then-add case;
* rare department-entry modifies — "department entries … have a very
  low update rate" (§7.3(b)).

Deterministic given the seed; keeps its own view of live employees so
it never targets a DN it already deleted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..server.directory import DirectoryServer
from ..server.operations import Modification
from .datagen import EnterpriseDirectory

__all__ = ["UpdateConfig", "UpdateGenerator"]


@dataclass(frozen=True)
class UpdateConfig:
    """Relative weights of the update operation kinds."""

    benign_modify: float = 0.62
    department_change: float = 0.15
    hire: float = 0.08
    leave: float = 0.08
    rename: float = 0.02
    department_entry_modify: float = 0.05
    seed: int = 7


class UpdateGenerator:
    """Applies randomized update operations to a master server."""

    def __init__(
        self,
        directory: EnterpriseDirectory,
        master: DirectoryServer,
        config: Optional[UpdateConfig] = None,
    ):
        self.directory = directory
        self.master = master
        self.config = config if config is not None else UpdateConfig()
        self._rng = random.Random(self.config.seed)
        self._employees: List[DN] = [e.dn for e in directory.all_employees()]
        self._departments: List[DN] = [d.dn for d in directory.departments]
        self._division_numbers = sorted(
            {d.first("divisionNumber") for d in directory.departments}
        )
        self._hire_counter = 0
        self.applied = 0

    # ------------------------------------------------------------------
    def apply(self, count: int = 1) -> int:
        """Apply *count* random updates at the master; returns how many
        actually committed (targets may be missing after churn)."""
        committed = 0
        for _ in range(count):
            if self._apply_one():
                committed += 1
        return committed

    def _apply_one(self) -> bool:
        cfg = self.config
        kinds = (
            ("benign", cfg.benign_modify),
            ("dept_change", cfg.department_change),
            ("hire", cfg.hire),
            ("leave", cfg.leave),
            ("rename", cfg.rename),
            ("dept_entry", cfg.department_entry_modify),
        )
        total = sum(w for _k, w in kinds)
        u = self._rng.random() * total
        acc = 0.0
        kind = kinds[-1][0]
        for name, weight in kinds:
            acc += weight
            if u <= acc:
                kind = name
                break
        try:
            handler = getattr(self, f"_do_{kind}")
            if handler():
                self.applied += 1
                return True
            return False
        except Exception:
            return False  # churn race (entry vanished); skip this tick

    # ------------------------------------------------------------------
    # operation kinds
    # ------------------------------------------------------------------
    def _random_employee(self) -> Optional[int]:
        """Index in ``_employees`` of a random employee the master still
        holds, dropping stale names on the way; None once none is left.
        ``randrange`` draws as ``choice`` does, and the list holds no
        name twice, so deleting by index is ``remove`` without the scan."""
        while self._employees:
            i = self._rng.randrange(len(self._employees))
            if self.master.store.get(self._employees[i]) is not None:
                return i
            del self._employees[i]
        return None

    def _do_benign(self) -> bool:
        i = self._random_employee()
        if i is None:
            return False
        phone = (
            f"{self._rng.randrange(200, 999)}-{self._rng.randrange(100, 999)}"
            f"-{self._rng.randrange(1000, 9999)}"
        )
        self.master.modify(
            self._employees[i], [Modification.replace("telephoneNumber", phone)]
        )
        return True

    def _do_dept_change(self) -> bool:
        i = self._random_employee()
        if i is None:
            return False
        division = self._rng.choice(self._division_numbers)
        dept = f"{division}{self._rng.randrange(40):02d}"
        self.master.modify(
            self._employees[i],
            [
                Modification.replace("departmentNumber", dept),
                Modification.replace("divisionNumber", division),
            ],
        )
        return True

    def _do_hire(self) -> bool:
        self._hire_counter += 1
        template = self.master.store.get(self._rng.choice(self._employees))
        if template is None:
            return False
        country_dn = template.dn.parent
        cc = country_dn.rdn.value
        uid = f"newhire{self._hire_counter}"
        serial_src = template.first("serialNumber") or "000000XX"
        serial = f"{serial_src[:4]}{90 + self._hire_counter % 10:02d}{cc.upper()}"
        entry = Entry(
            country_dn.child(f"cn=New Hire {self._hire_counter}"),
            {
                "objectClass": ["inetOrgPerson", "organizationalPerson", "person", "top"],
                "cn": f"New Hire {self._hire_counter}",
                "sn": "Hire",
                "givenName": "New",
                "uid": uid,
                "mail": f"{uid}@{cc}.xyz.com",
                "serialNumber": serial,
                "departmentNumber": template.first("departmentNumber") or "2000",
                "divisionNumber": template.first("divisionNumber") or "20",
                "entrySizeBytes": 6000,
            },
        )
        self.master.add(entry)
        self._employees.append(entry.dn)
        return True

    def _do_leave(self) -> bool:
        i = self._random_employee()
        if i is None:
            return False
        self.master.delete(self._employees[i])
        del self._employees[i]
        return True

    def _do_rename(self) -> bool:
        i = self._random_employee()
        if i is None:
            return False
        dn = self._employees[i]
        new_rdn = f"cn={dn.rdn.value} (r{self.master.current_csn})"
        records = self.master.modify_dn(dn, new_rdn=new_rdn)
        del self._employees[i]
        self._employees.append(records[0].new_dn)
        return True

    def _do_dept_entry(self) -> bool:
        dn = self._rng.choice(self._departments)
        if self.master.store.get(dn) is None:
            return False
        self.master.modify(
            dn,
            [
                Modification.replace(
                    "description", f"department (rev {self.master.current_csn})"
                )
            ],
        )
        return True
