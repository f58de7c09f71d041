package baseline

import (
	"testing"

	"slinfer/internal/core"
	"slinfer/internal/policy"
)

func TestSystemsOrderAndNames(t *testing.T) {
	sys := Systems()
	want := []string{"sllm", "sllm+c", "sllm+c+s", "SLINFER"}
	if len(sys) != len(want) {
		t.Fatalf("len = %d", len(sys))
	}
	for i, cfg := range sys {
		if cfg.Name != want[i] {
			t.Errorf("system %d = %s, want %s", i, cfg.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sllm", "sllm+c", "sllm+c+s", "SLINFER", "NEO+"} {
		cfg, ok := ByName(name)
		if !ok || cfg.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, cfg.Name, ok)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("bogus name resolved")
	}
}

func TestBaselinePolicyShapes(t *testing.T) {
	sllm, _ := ByName("sllm")
	if sllm.UseCPU || sllm.Sharing != policy.Exclusive || sllm.DynamicMemory {
		t.Error("sllm must be GPU-only, exclusive, static memory")
	}
	if sllm.FixedLimit == nil {
		t.Error("sllm needs fixed concurrency limits")
	}
	sc, _ := ByName("sllm+c")
	if !sc.UseCPU || !sc.CPUFirst {
		t.Error("sllm+c must prefer CPUs")
	}
	scs, _ := ByName("sllm+c+s")
	if scs.Sharing != policy.Static || scs.StaticShare != 0.5 {
		t.Error("sllm+c+s must halve nodes")
	}
	sl, _ := ByName("SLINFER")
	if sl.Sharing != policy.Elastic || !sl.ShadowValidation || !sl.Consolidation || !sl.DynamicMemory {
		t.Error("SLINFER must enable all subsystems")
	}
}

func TestDisaggregated(t *testing.T) {
	cfg := Disaggregated(core.SLINFER())
	if !cfg.PD || cfg.Name != "SLINFER/pd" {
		t.Errorf("PD variant wrong: %+v", cfg.Name)
	}
}

func TestAblationsDisableOneComponentEach(t *testing.T) {
	ab := Ablations()
	if len(ab) != 4 {
		t.Fatalf("len = %d, want 4", len(ab))
	}
	if ab["w/o CPU"].UseCPU {
		t.Error("w/o CPU still uses CPU")
	}
	if ab["w/o Consolidation"].Consolidation {
		t.Error("w/o Consolidation still consolidates")
	}
	if ab["w/o Sharing"].Sharing == policy.Elastic {
		t.Error("w/o Sharing still shares")
	}
	if !ab["SLINFER-Full"].Consolidation || !ab["SLINFER-Full"].UseCPU {
		t.Error("full config mangled")
	}
}
