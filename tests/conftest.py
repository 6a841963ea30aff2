"""Shared fixtures for the rgpdOS reproduction test suite."""

import pytest

from repro import Authority, RgpdOS
from repro.kernel.machine import MachineConfig
from repro.workloads.generator import STANDARD_DECLARATIONS, PopulationGenerator

#: Small machine: tests exercise logic, not scale.
SMALL_MACHINE = dict(
    total_cores=8,
    total_frames=8192,
    rgpdos_frames=3072,
    gp_frames=3072,
    driver_frames_each=512,
)


@pytest.fixture(scope="session")
def shared_authority():
    """One authority keypair for the whole session (keygen is the
    single most expensive fixture step)."""
    return Authority(bits=512, seed=4242)


def make_system(authority):
    return RgpdOS(
        operator_name="test-operator",
        authority=authority,
        machine_config=MachineConfig(**SMALL_MACHINE),
    )

# Listing-1-style declarations used by the GDPR-machinery tests.
LISTING1_DECLARATIONS = """
type user {
  fields {
    name: string,
    pwd: string [sensitive],
    year_of_birthdate: int
  };
  view v_name { name };
  view v_ano { year_of_birthdate };
  consent {
    purpose1: all,
    purpose2: none,
    purpose3: v_ano
  };
  collection {
    web_form: user_form.html,
    third_party: fetch_data.py
  };
  origin: subject;
  age: 1Y;
  sensitivity: hight;
}

type age_pd {
  fields { age: int };
  consent { purpose1: all };
  collection { web_form: derived };
  origin: sysadmin;
  age: 90D;
}

purpose purpose1 {
  description: "Operate the account with full profile access";
  uses: user;
  basis: contract;
}

purpose purpose2 {
  description: "Marketing (denied by default consent)";
  uses: user;
  basis: consent;
}

purpose purpose3 {
  description: "Compute the age of the input user";
  uses: user via v_ano;
  produces: age_pd;
  basis: consent;
}
"""


def make_monitor_system(authority, shards=1):
    """Machine-less Listing-1 system with alice and bob collected, on
    512-block devices so a full residue-scrubber sweep is a handful
    of ticks, not a thousand."""
    os_ = RgpdOS(
        operator_name="monitor-test",
        authority=authority,
        with_machine=False,
        pd_device_blocks=512,
        shards=shards,
    )
    os_.install(LISTING1_DECLARATIONS)
    os_.collect(
        "user",
        {"name": "Alice Martin", "pwd": "alice-secret-pwd",
         "year_of_birthdate": 1990},
        subject_id="alice", method="web_form",
    )
    os_.collect(
        "user",
        {"name": "Bob Durand", "pwd": "bob-secret-pwd",
         "year_of_birthdate": 1985},
        subject_id="bob", method="web_form",
    )
    return os_


@pytest.fixture
def system(shared_authority):
    """A booted rgpdOS with the Listing-1 declarations installed."""
    os_ = make_system(shared_authority)
    os_.install(LISTING1_DECLARATIONS)
    return os_


@pytest.fixture
def standard_system(shared_authority):
    """A booted rgpdOS with the richer standard declarations."""
    os_ = make_system(shared_authority)
    os_.install(STANDARD_DECLARATIONS)
    return os_


@pytest.fixture
def populated(system):
    """The Listing-1 system plus two collected users (alice, bob)."""
    alice = system.collect(
        "user",
        {"name": "Alice Martin", "pwd": "alice-secret-pwd",
         "year_of_birthdate": 1990},
        subject_id="alice",
        method="web_form",
    )
    bob = system.collect(
        "user",
        {"name": "Bob Durand", "pwd": "bob-secret-pwd",
         "year_of_birthdate": 1985},
        subject_id="bob",
        method="web_form",
    )
    return system, alice, bob


@pytest.fixture
def population():
    return PopulationGenerator(seed=123)
