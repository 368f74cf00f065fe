import pytest

from cover_lattice import (
    Stipulation,
    UniverseMismatchError,
    ValidationError,
    class_compliance_report,
    complies,
    star_closure,
    subsumes,
)

from util import C


class TestStipulation:
    def test_empty_sensitive_rejected(self):
        with pytest.raises(ValidationError):
            Stipulation(frozenset())

    def test_zero_resolution_allowed(self):
        s = Stipulation(frozenset({"1"}), 0)
        assert s.max_resolution == 0

    def test_negative_resolution_rejected(self):
        with pytest.raises(ValidationError):
            Stipulation(frozenset({"1"}), -1)


class TestComplies:
    def test_no_preimage_inside_region(self, u3):
        assert complies(C(u3, "12", "23"), Stipulation(frozenset({"1"})))

    def test_closure_reveals_the_region(self, u3):
        closed = star_closure(C(u3, "12", "23"))
        assert not complies(closed, Stipulation(frozenset({"1"})))

    def test_whole_universe_sensitive(self, u3):
        s = Stipulation(frozenset({"1", "2", "3"}))
        assert not complies(C(u3, "123"), s)
        assert not complies(C(u3, "1", "2", "3"), s)

    def test_resolution_threshold(self, u3):
        s = Stipulation(frozenset({"1", "2"}), 1)
        assert complies(C(u3, "12", "3"), s)  # {1,2} inside region but above resolution
        assert not complies(C(u3, "1", "23"), s)

    def test_zero_resolution_forbids_nothing(self, u3):
        s = Stipulation(frozenset({"1"}), 0)
        assert complies(C(u3, "1", "2", "3"), s)

    def test_unknown_sensitive_feature(self, u2):
        with pytest.raises(UniverseMismatchError):
            complies(C(u2, "12"), Stipulation(frozenset({"9"})))

    def test_invariant_under_input_order_and_labels(self, u3):
        from cover_lattice import Cover

        s = Stipulation(frozenset({"1"}))
        a = C(u3, "12", "23")
        m12, m23 = u3.mask_of("12"), u3.mask_of("23")
        b = Cover(u3, [m23, m12], {m23: "x", m12: "y"})
        assert complies(a, s) == complies(b, s)

    def test_anti_monotone_under_subsumption(self, u3, covers3):
        s = Stipulation(frozenset({"1", "3"}))
        for a in covers3:
            if not complies(a, s):
                continue
            for b in covers3:
                if subsumes(b, a):
                    assert complies(b, s)


class TestClassComplianceReport:
    def test_mixed_class_witness(self, u3):
        c = C(u3, "12", "23")
        report = class_compliance_report(c, Stipulation(frozenset({"1"})))
        assert report.mixed
        compliant_witness, violating_witness = report.witness
        assert complies(compliant_witness, Stipulation(frozenset({"1"})))
        assert not complies(violating_witness, Stipulation(frozenset({"1"})))
        assert c in report.compliant
        assert star_closure(c) in report.non_compliant

    def test_all_members_non_compliant(self, u3):
        report = class_compliance_report(C(u3, "1", "2", "3"), Stipulation(frozenset({"1"})))
        assert not report.compliant
        assert not report.mixed
        assert len(report.non_compliant) == 1

    def test_all_members_compliant_with_zero_resolution(self, u3):
        report = class_compliance_report(C(u3, "123"), Stipulation(frozenset({"1"}), 0))
        assert not report.non_compliant
        assert not report.mixed
        assert len(report.compliant) == 64  # closure has 7 sets, representative 1

    def test_partition_sums(self, u3):
        from cover_lattice import class_members

        c = C(u3, "12", "23")
        report = class_compliance_report(c, Stipulation(frozenset({"1"})))
        assert len(report.compliant) + len(report.non_compliant) == len(class_members(c))
