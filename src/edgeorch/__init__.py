"""Joint online VM-bundle admission and public-data placement across
cooperating edge clouds, driven by a virtual-queue budget controller."""

__version__ = "0.1.0"

from .allocator import Decision, OnlineAllocator
from .model import (DataCatalog, PlacementProfile, Request, ResourceState,
                    Topology, VMCatalog)
from .orchestrator import run_coarse_slot, update_virtual_queue
from .placement import DemandMatrix, aggregate_demand, greedy_place
from .scenario import Scenario, load_scenario
from .simulator import RunReport, WorkloadConfig, generate_workload, run_policy
