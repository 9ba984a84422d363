package experiments

import (
	"strings"
	"testing"

	"neurotest/internal/snn"
)

func repairRunner() *Runner {
	return NewRunner(Config{
		RepairClusters: []int{1, 2},
		RepairChips:    4,
		RepairSample:   48,
		RepairSpares:   8,
	})
}

func TestRepairSweepRecoversYield(t *testing.T) {
	arch := snn.Arch{10, 8, 3}
	points := repairRunner().RepairSweep(arch)
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2 densities", len(points))
	}
	for _, pt := range points {
		// Every die carries at least one fault from the detected universe,
		// so no die ships unrepaired — and the loop must rescue some.
		if pt.RecoveredYield() <= pt.UnrepairedYield() {
			t.Errorf("clusters=%d: recovered yield %.1f%% must beat unrepaired %.1f%%",
				pt.Clusters, pt.RecoveredYield(), pt.UnrepairedYield())
		}
		if pt.Healthy+pt.Repaired+pt.Degraded+pt.Unrepairable != pt.Dies || pt.Dies != 4 {
			t.Errorf("clusters=%d: verdicts don't tally: %+v", pt.Clusters, pt)
		}
		if pt.Repaired > 0 && pt.CellsRetired == 0 {
			t.Errorf("clusters=%d: repairs without retired cells: %+v", pt.Clusters, pt)
		}
		if pt.MeanPostAccuracy() < pt.MeanGoldenAccuracy()-0.05 {
			t.Errorf("clusters=%d: post accuracy %.4f collapsed below golden %.4f",
				pt.Clusters, pt.MeanPostAccuracy(), pt.MeanGoldenAccuracy())
		}
	}
}

func TestRepairSweepDeterministicAndRendered(t *testing.T) {
	arch := snn.Arch{10, 8, 3}
	a := repairRunner().RepairSweep(arch)
	b := repairRunner().RepairSweep(arch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep not reproducible at point %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	tbl := RepairTable(arch, 8, a)
	s := tbl.String()
	if !strings.Contains(s, "recovered yield %") || !strings.Contains(s, "acc post") {
		t.Errorf("table header wrong:\n%s", s)
	}
	if len(tbl.Rows) != len(a) {
		t.Errorf("table has %d rows, want %d", len(tbl.Rows), len(a))
	}
}

func TestNormalizeRepairDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if len(c.RepairClusters) != 4 || c.RepairClusters[len(c.RepairClusters)-1] != 8 {
		t.Errorf("repair densities must sweep up to 8 clusters/die: %v", c.RepairClusters)
	}
	if c.RepairChips == 0 || c.RepairSample == 0 || c.RepairSpares == 0 {
		t.Errorf("repair population defaults missing: %+v", c)
	}
}
