"""Tests for the authorization subsystem (paper Section 6, Figure 6)."""

import pytest

from repro import AccessDenied, AttributeSpec, AuthorizationConflict, Database
from repro.authorization import (
    AuthorizationEngine,
    AuthType,
    Authorization,
    FIGURE6_ATOMS,
    combine,
    conflicts,
    figure6_matrix,
    parse_atom,
    render_figure6,
)


class TestAtoms:
    @pytest.mark.parametrize("text", ["sR", "wR", "sW", "wW", "s¬R", "w¬R",
                                      "s¬W", "w¬W"])
    def test_parse_render_roundtrip(self, text):
        assert str(Authorization.parse(text)) == text

    def test_ascii_negation_accepted(self):
        assert Authorization.parse("s-R") == Authorization.parse("s¬R")
        assert Authorization.parse("w~W") == Authorization.parse("w¬W")

    @pytest.mark.parametrize("bad", ["", "x", "zR", "sQ", "s"])
    def test_bad_atoms_rejected(self, bad):
        with pytest.raises(ValueError):
            Authorization.parse(bad)

    def test_positive_write_implies_read(self):
        atom = parse_atom("sW")
        assert (AuthType.READ, True) in atom.implied_types()

    def test_negative_read_implies_negative_write(self):
        atom = parse_atom("s¬R")
        assert (AuthType.WRITE, False) in atom.implied_types()

    def test_positive_read_implies_only_itself(self):
        assert parse_atom("sR").implied_types() == {(AuthType.READ, True)}

    def test_implies_same_strength_only(self):
        assert parse_atom("sW").implies(parse_atom("sR"))
        assert not parse_atom("sW").implies(parse_atom("wR"))

    def test_figure6_atom_order(self):
        assert [str(a) for a in FIGURE6_ATOMS] == [
            "sR", "wR", "sW", "wW", "s¬R", "w¬R", "s¬W", "w¬W",
        ]


class TestCombine:
    def test_paper_example_strong_r_plus_strong_w(self):
        assert combine(["sR", "sW"]).render() == "sW"

    def test_paper_example_strong_negatives(self):
        assert combine(["s¬R", "s¬W"]).render() == "s¬R"

    def test_contradictory_strongs_conflict(self):
        assert combine(["sR", "s¬R"]).conflict
        assert combine(["sW", "s¬W"]).conflict

    def test_paper_example_sw_vs_snr_conflict(self):
        # sW implies sR; s¬R implies s¬W: double contradiction.
        assert combine(["sW", "s¬R"]).conflict

    def test_read_grant_with_write_prohibition_coexist(self):
        resolution = combine(["sR", "s¬W"])
        assert not resolution.conflict
        assert resolution.permits("R") and resolution.denies("W")

    def test_strong_overrides_weak_entirely(self):
        assert combine(["sR", "w¬R"]).render() == "sR"
        assert combine(["sW", "w¬R"]).render() == "sW"

    def test_weak_weak_contradiction_conflicts(self):
        assert combine(["wR", "w¬R"]).conflict
        assert combine(["wW", "w¬R"]).conflict

    def test_compatible_weaks_coexist(self):
        resolution = combine(["wR", "w¬W"])
        assert not resolution.conflict
        assert resolution.permits("R") and resolution.denies("W")

    def test_empty_input(self):
        resolution = combine([])
        assert not resolution.conflict
        assert not resolution.permits("R") and not resolution.denies("R")

    def test_single_atom(self):
        assert combine(["wW"]).render() == "wW"

    def test_duplicate_atoms_idempotent(self):
        assert combine(["sR", "sR"]).render() == "sR"

    def test_conflicts_helper(self):
        assert conflicts("sR", "s¬R")
        assert not conflicts("sR", "sW")


class TestFigure6Matrix:
    def test_full_size(self):
        matrix = figure6_matrix()
        assert len(matrix) == 64

    def test_diagonal_never_conflicts(self):
        matrix = figure6_matrix()
        for atom in FIGURE6_ATOMS:
            assert not matrix[(atom, atom)].conflict

    def test_symmetry(self):
        matrix = figure6_matrix()
        for row in FIGURE6_ATOMS:
            for col in FIGURE6_ATOMS:
                a, b = matrix[(row, col)], matrix[(col, row)]
                assert a.conflict == b.conflict
                assert a.effective == b.effective

    def test_conflict_count_is_stable(self):
        # Regression pin: the derived matrix has exactly these conflicts.
        matrix = figure6_matrix()
        conflict_cells = sum(1 for r in matrix.values() if r.conflict)
        assert conflict_cells == 12

    def test_render_contains_conflict(self):
        assert "Conflict" in render_figure6()


@pytest.fixture
def auth_setup(figure5_db):
    database, handles = figure5_db
    return database, handles, AuthorizationEngine(database)


class TestImplicitAuthorization:
    def test_composite_grant_covers_components(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "sR", on_instance=h["j"])
        assert engine.check("u", "R", h["j"])
        assert engine.check("u", "R", h["o_prime"])
        assert engine.check("u", "R", h["p"])
        assert not engine.check("u", "R", h["q"])

    def test_shared_component_gets_strongest(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "sR", on_instance=h["j"])
        engine.grant("u", "sW", on_instance=h["k"])
        assert engine.check("u", "W", h["o_prime"])
        assert engine.check("u", "R", h["o_prime"])
        assert not engine.check("u", "W", h["p"])  # only under j (sR)

    def test_grant_conflict_rejected(self, auth_setup):
        # Paper: s¬R from j, then sW on k fails (shared o').
        database, h, engine = auth_setup
        engine.grant("u", "s¬R", on_instance=h["j"])
        with pytest.raises(AuthorizationConflict):
            engine.grant("u", "sW", on_instance=h["k"])

    def test_weak_then_strong_allowed(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "w¬R", on_instance=h["j"])
        engine.grant("u", "sW", on_instance=h["k"])  # overrides the weak
        assert engine.check("u", "W", h["o_prime"])

    def test_per_user_isolation(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("alice", "sR", on_instance=h["j"])
        assert not engine.check("bob", "R", h["j"])

    def test_database_grant_covers_everything(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("root", "sW", database=True)
        for uid in h.values():
            assert engine.check("root", "W", uid)

    def test_class_grant_covers_instances_and_components(self):
        database = Database()
        database.make_class("AutoBody")
        database.make_class("Vehicle", attributes=[
            AttributeSpec("Body", domain="AutoBody", composite=True,
                          exclusive=True, dependent=False),
        ])
        body_in = database.make("AutoBody")
        body_out = database.make("AutoBody")
        vehicle = database.make("Vehicle", values={"Body": body_in})
        engine = AuthorizationEngine(database)
        engine.grant("u", "sR", on_class="Vehicle")
        assert engine.check("u", "R", vehicle)
        assert engine.check("u", "R", body_in)
        # "the authorization on Vehicle does not imply the same
        # authorization on all instances of Autobody" — only components.
        assert not engine.check("u", "R", body_out)

    def test_class_grant_covers_subclass_instances(self):
        database = Database()
        database.make_class("Doc")
        database.make_class("Memo", superclasses=["Doc"])
        memo = database.make("Memo")
        engine = AuthorizationEngine(database)
        engine.grant("u", "sR", on_class="Doc")
        assert engine.check("u", "R", memo)

    def test_explain_reports_sources(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "sR", on_instance=h["j"])
        reasons = engine.explain("u", h["o_prime"])
        assert len(reasons) == 1
        assert "composite object" in reasons[0][1]


class TestGrantManagement:
    def test_revoke(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "sR", on_instance=h["j"])
        assert engine.revoke("u", "sR", on_instance=h["j"])
        assert not engine.check("u", "R", h["p"])

    def test_revoke_missing_returns_false(self, auth_setup):
        database, h, engine = auth_setup
        assert not engine.revoke("u", "sR", on_instance=h["j"])

    def test_exactly_one_target_required(self, auth_setup):
        database, h, engine = auth_setup
        with pytest.raises(ValueError):
            engine.grant("u", "sR")
        with pytest.raises(ValueError):
            engine.grant("u", "sR", on_class="Root", on_instance=h["j"])

    def test_stored_record_count(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "sR", on_instance=h["j"])
        engine.grant("v", "sR", on_instance=h["k"])
        assert engine.stored_record_count() == 2

    def test_negative_grant_then_check(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "s¬W", on_instance=h["j"])
        resolution = engine.resolve("u", h["p"])
        assert resolution.denies("W") and not resolution.permits("R")


class TestRequire:
    def test_require_passes(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "sR", on_instance=h["j"])
        assert engine.require("u", "R", h["p"])

    def test_require_denies_on_absence(self, auth_setup):
        database, h, engine = auth_setup
        with pytest.raises(AccessDenied) as excinfo:
            engine.require("u", "R", h["p"])
        assert "no" in str(excinfo.value)

    def test_require_denies_on_negative(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "s¬R", on_instance=h["j"])
        with pytest.raises(AccessDenied) as excinfo:
            engine.require("u", "R", h["p"])
        assert "negative" in str(excinfo.value)

    def test_write_implies_read_at_check(self, auth_setup):
        database, h, engine = auth_setup
        engine.grant("u", "sW", on_instance=h["j"])
        assert engine.require("u", "R", h["p"])


def _parent_permits(resolution, auth_type):
    """The reference: ``effective`` read the way checks read it before
    resolutions carried their permitted types."""
    if resolution.conflict:
        return False
    decided = resolution.effective.get(AuthType(auth_type))
    return bool(decided) and decided[0]


def _parent_denial(user, auth_type, uid, resolution):
    auth_type = AuthType(auth_type)
    if resolution.conflict:
        reason = "conflicting implied authorizations"
    elif resolution.effective.get(auth_type, (True,))[0] is False:
        reason = f"negative {auth_type} authorization"
    else:
        reason = f"no {auth_type} authorization"
    return f"{user!r} may not {auth_type} {uid}: {reason}"


#: Every resolution the eight Figure 6 atoms combine into: none, each
#: atom alone, and each pair (conflicts included).
_FIGURE6_SETS = [()] + [(atom,) for atom in FIGURE6_ATOMS] + [
    (a, b) for i, a in enumerate(FIGURE6_ATOMS) for b in FIGURE6_ATOMS[i + 1:]
]


class TestPermitPath:
    TYPES = ("R", "W", AuthType.READ, AuthType.WRITE)

    def _engine(self, resolution):
        database = Database()
        database.make_class("Doc")
        uid = database.make("Doc")
        engine = AuthorizationEngine(database)
        engine.resolve = lambda user, uid: resolution
        return engine, uid

    def test_the_sets_reach_every_kind_of_resolution(self):
        resolutions = [combine(atoms) for atoms in _FIGURE6_SETS]
        assert len(resolutions) == 37
        assert sum(r.conflict for r in resolutions) == 6  # 12 ordered cells
        assert any(r.permits("R") and not r.permits("W") for r in resolutions)
        assert any(r.permits("W") for r in resolutions)
        assert any(r.denies("R") for r in resolutions)

    @pytest.mark.parametrize("atoms", _FIGURE6_SETS,
                             ids=lambda atoms: "+".join(map(str, atoms)) or "none")
    def test_check_and_require_agree_with_effective(self, atoms):
        resolution = combine(atoms)
        engine, uid = self._engine(resolution)
        for auth_type in self.TYPES:
            expected = _parent_permits(resolution, auth_type)
            assert resolution.permits(auth_type) is expected
            assert engine.check("u", auth_type, uid) is expected
            if expected:
                assert engine.require("u", auth_type, uid) is True
                continue
            with pytest.raises(AccessDenied) as excinfo:
                engine.require("u", auth_type, uid)
            assert str(excinfo.value) == _parent_denial(
                "u", auth_type, uid, resolution)

    def test_the_three_denial_messages(self):
        uid = self._engine(combine(()))[1]
        for atoms, reason in (
                (("sR", "s¬R"), "conflicting implied authorizations"),
                (("s¬R",), "negative W authorization"),
                (("sR",), "no W authorization")):
            engine, _ = self._engine(combine(atoms))
            with pytest.raises(AccessDenied) as excinfo:
                engine.require("u", "W", uid)
            assert str(excinfo.value) == f"'u' may not W {uid}: {reason}"

    @pytest.mark.parametrize("atoms", [(), ("sW",), ("s¬R",), ("sR", "s¬R")])
    @pytest.mark.parametrize("bad", ["X", ["R"]])
    def test_an_unknown_type_is_a_value_error(self, atoms, bad):
        engine, uid = self._engine(combine(atoms))
        with pytest.raises(ValueError):
            engine.check("u", bad, uid)
        with pytest.raises(ValueError):
            engine.require("u", bad, uid)

    def test_permitted_holds_members_and_letters(self):
        assert combine(["sW"]).permitted == {
            AuthType.READ, "R", AuthType.WRITE, "W"}
        assert combine(["sR", "s¬R"]).permitted == frozenset()
