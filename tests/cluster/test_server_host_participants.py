"""The host's per-action participant table against a scan of every server.

``ServerHost`` visits, at prepare/commit/abort, only the servers an
action tree reached on the host.  Each case here drives that host and a
twin that visits every activated server (what the host did before it
kept the table) through the same steps, and checks that the replies and
the state of every server -- value, version, locks and before-images --
agree after each step.
"""

import pytest

from repro.actions import LockRefused
from repro.cluster import DistributedSystem, SystemConfig
from repro.cluster.server_host import ServerHost
from repro.storage import Uid

from tests.conftest import Counter

UIDS = [str(Uid("sys", serial)) for serial in (1, 2, 3)]


class ScanningHost(ServerHost):
    """Visits every activated server in 2PC, whatever the action."""

    def _participants(self, action_path):
        return list(self._servers.values())


def _state(host):
    return {str(uid): (server.obj.value, server.version,
                       sorted((owner.path, mode.value)
                              for owner, mode in server.locks.holders_of("object")),
                       [path for path, _ in server._images])
            for uid, server in host._servers.items()}


class Twins:
    """The indexed host and the scanning host, driven in lock step."""

    def __init__(self):
        self.system = DistributedSystem(SystemConfig(seed=3))
        self.system.registry.register(Counter)
        self.node = self.system.add_node("s1", server=True)
        for client in ("c1", "c2"):
            self.system.add_client(client)
        self.hosts = [cls(self.node, self.system.registry, janitor_interval=None)
                      for cls in (ServerHost, ScanningHost)]
        for host in self.hosts:
            for serial, uid in enumerate(UIDS, start=1):
                self.activate(host, uid, 10 * serial)

    def activate(self, host, uid, value):
        obj = Counter(Uid.parse(uid), value=value)
        host.install_state(uid, obj.serialise(), 1)

    @property
    def indexed(self):
        return self.hosts[0]

    def step(self, method, *args, **kwargs):
        """Call ``method`` on both hosts; their outcomes must agree."""
        outcomes = []
        for host in self.hosts:
            try:
                outcomes.append(("ok", getattr(host, method)(*args, **kwargs)))
            except Exception as exc:
                outcomes.append(("raised", type(exc)))
        assert outcomes[0] == outcomes[1]
        assert _state(self.hosts[0]) == _state(self.hosts[1])
        return outcomes[0]


@pytest.fixture
def twins():
    return Twins()


def test_commit_visits_only_the_servers_the_action_reached(twins):
    twins.step("invoke", (1,), UIDS[0], "add", (1,), client_node="c1")
    server = twins.indexed._servers[Uid.parse(UIDS[0])]
    assert list(twins.indexed._actions[1].servers) == [server]
    assert twins.step("prepare", (1,)) == ("ok", "ok")
    twins.step("commit", (1,))
    assert twins.indexed._actions == {}


def test_nested_abort_keeps_the_parents_locks_and_images(twins):
    twins.step("invoke", (1,), UIDS[0], "add", (1,), client_node="c1")
    twins.step("invoke", (1, 2), UIDS[0], "add", (100,), client_node="c1")
    twins.step("invoke", (1, 2), UIDS[1], "add", (100,), client_node="c1")
    twins.step("abort", (1, 2))
    state = _state(twins.indexed)
    assert state[UIDS[0]] == (11, 1, [((1,), "write")], [(1,)])
    assert state[UIDS[1]] == (20, 1, [], [])
    # The tree is still live here: its entry survives the nested abort.
    assert 1 in twins.indexed._actions
    assert twins.step("prepare", (1,)) == ("ok", "ok")
    twins.step("commit", (1,))
    assert _state(twins.indexed)[UIDS[0]] == (11, 2, [], [])
    assert twins.indexed._actions == {}


def test_read_only_prepare_releases_read_locks(twins):
    twins.step("invoke", (5,), UIDS[0], "get", (), client_node="c1")
    twins.step("invoke", (5,), UIDS[1], "get", (), client_node="c1")
    assert twins.step("prepare", (5,)) == ("ok", "readonly")
    assert all(locks == [] for _, _, locks, _ in _state(twins.indexed).values())
    # No phase 2 follows a read-only vote: the action is finished here.
    assert 5 not in twins.indexed._actions
    # A writer is no longer refused.
    twins.step("invoke", (6,), UIDS[0], "add", (1,), client_node="c1")


def test_prepare_of_an_unknown_action_is_read_only(twins):
    assert twins.step("prepare", (42,)) == ("ok", "readonly")
    twins.step("commit", (42,))
    twins.step("abort", (42,))


def test_lock_refused_leaves_no_entry(twins):
    twins.step("invoke", (7,), UIDS[0], "add", (1,), client_node="c1")
    assert twins.step("invoke", (8,), UIDS[0], "add", (1,),
                      client_node="c1") == ("raised", LockRefused)
    assert 8 not in twins.indexed._actions
    twins.step("abort", (8,))
    twins.step("commit", (7,))
    assert _state(twins.indexed)[UIDS[0]] == (11, 2, [], [])


def test_lock_refused_keeps_servers_the_tree_already_holds(twins):
    twins.step("invoke", (7,), UIDS[0], "add", (1,), client_node="c1")
    twins.step("invoke", (8,), UIDS[1], "add", (1,), client_node="c1")
    assert twins.step("invoke", (8,), UIDS[0], "get", (),
                      client_node="c1") == ("raised", LockRefused)
    server = twins.indexed._servers[Uid.parse(UIDS[1])]
    assert list(twins.indexed._actions[8].servers) == [server]
    twins.step("abort", (8,))
    twins.step("commit", (7,))


def test_operation_error_after_locking_is_still_covered(twins):
    # ``add`` takes the write lock and a before-image, then fails.
    assert twins.step("invoke", (9,), UIDS[0], "add", ("x",),
                      client_node="c1") == ("raised", TypeError)
    assert _state(twins.indexed)[UIDS[0]] == (10, 1, [((9,), "write")], [(9,)])
    assert twins.indexed._actions[9].client == "c1"
    twins.step("abort", (9,))
    assert _state(twins.indexed)[UIDS[0]] == (10, 1, [], [])
    assert twins.indexed._actions == {}


def test_passivate_then_reactivate(twins):
    twins.step("invoke", (3,), UIDS[0], "get", (), client_node="c1")
    assert twins.step("prepare", (3,)) == ("ok", "readonly")
    assert twins.step("passivate_if_quiescent", UIDS[0]) == ("ok", True)
    for host in twins.hosts:
        twins.activate(host, UIDS[0], 77)
    twins.step("invoke", (4,), UIDS[0], "add", (1,), client_node="c1")
    twins.step("prepare", (4,))
    twins.step("commit", (4,))
    assert _state(twins.indexed)[UIDS[0]] == (78, 2, [], [])


def test_janitor_aborts_the_tree_of_a_crashed_client(twins):
    for host in twins.hosts:
        host.janitor_interval = 0.5
        twins.node.spawn(host._janitor_loop(), name="janitor")
    twins.step("invoke", (11,), UIDS[0], "add", (5,), client_node="c1")
    twins.step("invoke", (11, 12), UIDS[1], "add", (5,), client_node="c1")
    twins.step("invoke", (13,), UIDS[2], "add", (5,), client_node="c2")
    twins.system.nodes["c1"].crash()
    twins.system.run(until=twins.system.scheduler.now + 3.0)
    assert _state(twins.hosts[0]) == _state(twins.hosts[1])
    state = _state(twins.indexed)
    assert state[UIDS[0]] == (10, 1, [], [])
    assert state[UIDS[1]] == (20, 1, [], [])
    # The live client's action is untouched.
    assert state[UIDS[2]] == (35, 1, [((13,), "write")], [(13,)])
    assert list(twins.indexed._actions) == [13]
    assert [host.janitor_aborts for host in twins.hosts] == [1, 1]
