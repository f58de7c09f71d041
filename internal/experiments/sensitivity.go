package experiments

import (
	"fmt"

	"slinfer/internal/core"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig27",
		Title: "BurstGPT trace under different load levels (64 models)",
		Paper: "SLINFER consistently uses fewer nodes; at RPS 4 it keeps ~1% violations vs 7.7%",
		Run:   runFig27,
	})
	register(Experiment{
		ID:    "fig29",
		Title: "SLO-miss rate vs harvested CPU cores per GPU",
		Paper: "SLINFER lowest everywhere (9-19%); NEO+ lags (34-46%)",
		Run:   runFig29,
	})
	register(Experiment{
		ID:    "fig30",
		Title: "Keep-alive threshold sweep",
		Paper: "longer keep-alive wastes nodes and can worsen P95 TTFT; 1 s recommended",
		Run:   runFig30,
	})
	register(Experiment{
		ID:    "fig31",
		Title: "KV-cache scaling watermark sweep",
		Paper: "w=0 spends ~11% of lifetime scaling; w=25% ~1.4% with high KV utilization",
		Run:   runFig31,
	})
	register(Experiment{
		ID:    "fig32",
		Title: "Serving capacity vs cluster size",
		Paper: "SLINFER on 4 nodes ~ sllm+c+s on 8; diminishing returns with node count",
		Run:   runFig32,
	})
	register(Experiment{
		ID:    "fig33",
		Title: "Scheduling overhead vs cluster size (wall clock)",
		Paper: "shadow validation sub-millisecond, grows mildly; token-level pick flat",
		Run:   runFig33,
	})
	register(Experiment{
		ID:    "fig35",
		Title: "Dataset study with 64 x 8B models",
		Paper: "SLINFER uses fewer nodes on all datasets; avoids CPUs on LongBench",
		Run:   runFig35,
	})
	register(Experiment{
		ID:    "quant",
		Title: "INT4 quantization of 32 x 22B models (§X)",
		Paper: "INT4 cuts GPU usage from ~3.8 to ~2.6 by making 22B weights shareable",
		Run:   runQuant,
	})
	register(Experiment{
		ID:    "abl-fifo",
		Title: "Ablation: headroom-driven vs FIFO iteration scheduling",
		Paper: "(design ablation) headroom scheduling should meet more SLOs",
		Run:   runAblFIFO,
	})
	register(Experiment{
		ID:    "abl-margin",
		Title: "Ablation: shadow-validation overestimation margin",
		Paper: "(design ablation) small margins admit optimistically and violate",
		Run:   runAblMargin,
	})
}

func runFig27(s Scale) Result {
	res := Result{
		ID: "fig27", Title: "BurstGPT load sweep",
		Header: []string{"rps", "system", "cpu_nodes", "gpu_nodes", "violation_rate"},
	}
	models, names := replicaNames(model.Llama2_7B, 64)
	levels := []float64{0.5, 2}
	if s == Full {
		levels = []float64{0.5, 1, 2, 4}
	}
	type cell struct {
		rps float64
		cfg core.Config
		tr  workload.Trace
	}
	var cells []cell
	for _, rps := range levels {
		tr := workload.GenerateBurstGPT(workload.BurstGPTConfig{
			ModelNames: names, Duration: traceMinutes(s), RPS: rps, Seed: 27,
			Dataset: workload.AzureConv, MaxInput: 4096,
		})
		for _, cfg := range []core.Config{core.SllmCS(), core.SLINFER()} {
			cells = append(cells, cell{rps, cfg, tr})
		}
	}
	res.Rows = sweep(len(cells), func(i int) []string {
		c := cells[i]
		rep := runSystem(c.cfg, hwsim.Testbed(4, 4), models, c.tr)
		return []string{
			f1(c.rps), c.cfg.Name,
			f2(rep.AvgNodesUsed[hwsim.CPU]), f2(rep.AvgNodesUsed[hwsim.GPU]),
			pct(1 - rep.SLORate),
		}
	})
	return res
}

// runFig29 models harvested cores as derated CPU pseudo-nodes colocated
// with each GPU (§IX-I3) and compares NEO-style assist against sharing.
func runFig29(s Scale) Result {
	res := Result{
		ID: "fig29", Title: "SLO-miss rate vs harvested cores per GPU",
		Header: []string{"cores", "NEO+", "sllm+c+s", "SLINFER"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 29)
	cores := []int{0, 16, 32}
	if s == Full {
		cores = []int{0, 8, 16, 32}
	}
	// One cell per (cores, system); rows reassemble three cells each.
	cfgsFor := func(k int) []core.Config {
		return []core.Config{core.NEOPlus(k), core.SllmCS(), core.SLINFER()}
	}
	misses := sweep(3*len(cores), func(i int) string {
		k := cores[i/3]
		specs := hwsim.Testbed(0, 4)
		for j := 0; j < 4 && k > 0; j++ {
			specs = append(specs, hwsim.NewHarvestedCPUNode(fmt.Sprintf("harvest-%d", j), k))
		}
		rep := runSystem(cfgsFor(k)[i%3], specs, models, tr)
		return pct(1 - rep.SLORate)
	})
	for ki, k := range cores {
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(k), misses[3*ki], misses[3*ki+1], misses[3*ki+2],
		})
	}
	return res
}

func runFig30(s Scale) Result {
	res := Result{
		ID: "fig30", Title: "keep-alive threshold sweep (64 x 7B)",
		Header: []string{"keepalive_s", "system", "gpu_nodes", "ttft_p95_s"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 30)
	thresholds := []float64{0, 1, 8}
	if s == Full {
		thresholds = []float64{0, 1, 2, 4, 8}
	}
	type cell struct {
		ka  float64
		cfg core.Config
	}
	var cells []cell
	for _, ka := range thresholds {
		for _, base := range []core.Config{core.SllmCS(), core.SLINFER()} {
			cfg := base
			idle := sim.Duration(ka)
			if ka == 0 {
				idle = 0.01
			}
			cfg.KeepAlivePolicy = policy.FixedKeepAlive{Idle: idle}
			cells = append(cells, cell{ka, cfg})
		}
	}
	res.Rows = sweep(len(cells), func(i int) []string {
		c := cells[i]
		rep := runSystem(c.cfg, hwsim.Testbed(4, 4), models, tr)
		return []string{
			f1(c.ka), c.cfg.Name, f2(rep.AvgNodesUsed[hwsim.GPU]), f2(rep.TTFTP95),
		}
	})
	return res
}

func runFig31(s Scale) Result {
	res := Result{
		ID: "fig31", Title: "watermark sweep",
		Header: []string{"watermark", "kv_util", "scaling_overhead", "migration_rate", "slo_rate"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 31)
	marks := []float64{0, 0.25, 1.0}
	if s == Full {
		marks = []float64{0, 0.10, 0.25, 0.50, 1.0}
	}
	res.Rows = sweep(len(marks), func(i int) []string {
		w := marks[i]
		cfg := core.SLINFER()
		cfg.Watermark = kvcache.Watermark{W: w}
		rep := runSystem(cfg, hwsim.Testbed(4, 4), models, tr)
		return []string{
			pct(w), pct(rep.MeanKVUtil), pct(rep.ScalingOverhead), pct(rep.MigrationRate), f3(rep.SLORate),
		}
	})
	return res
}

func runFig32(s Scale) Result {
	res := Result{
		ID: "fig32", Title: "SLO-met requests vs node count (k CPU + k GPU)",
		Header: []string{"nodes", "system", "slo_met", "total"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 32)
	ks := []int{1, 2, 4}
	if s == Full {
		ks = []int{1, 2, 3, 4}
	}
	cfgs := []core.Config{core.SllmCS(), core.SLINFER()}
	res.Rows = sweep(len(ks)*len(cfgs), func(i int) []string {
		k, cfg := ks[i/len(cfgs)], cfgs[i%len(cfgs)]
		rep := runSystem(cfg, hwsim.Testbed(k, k), models, tr)
		return []string{
			fmt.Sprintf("%dC+%dG", k, k), cfg.Name, fmt.Sprint(rep.Met), fmt.Sprint(rep.Total),
		}
	})
	return res
}

func runFig33(s Scale) Result {
	res := Result{
		ID: "fig33", Title: "scheduling overhead (wall clock)",
		Header: []string{"nodes", "validation_ms", "token_pick_us"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 33)
	ks := []int{1, 2, 4}
	if s == Full {
		ks = []int{1, 2, 3, 4}
	}
	res.Rows = sweep(len(ks), func(i int) []string {
		k := ks[i]
		// Figure 33 reports host wall-clock overheads, so this experiment —
		// alone — turns the clock sampling on.
		cfg := core.SLINFER()
		cfg.MeasureOverhead = true
		rep := runSystem(cfg, hwsim.Testbed(k, k), models, tr)
		return []string{
			fmt.Sprintf("%dC+%dG", k, k), f3(rep.ValidationMS), f2(rep.ScheduleUS),
		}
	})
	return res
}

func runFig35(s Scale) Result {
	res := Result{
		ID: "fig35", Title: "dataset study, 64 x 8B models",
		Header: []string{"dataset", "system", "cpu_nodes", "gpu_nodes", "dec_cpu", "dec_gpu", "slo_rate"},
	}
	datasets := []workload.Dataset{workload.HumanEval, workload.AzureConv, workload.LongBench}
	if s == Full {
		datasets = workload.Datasets()
	}
	models, names := replicaNames(model.Llama31_8B, 64)
	type cell struct {
		d   workload.Dataset
		cfg core.Config
		tr  workload.Trace
	}
	var cells []cell
	for _, d := range datasets {
		tr := workload.Generate(workload.TraceConfig{
			ModelNames: names, Duration: traceMinutes(s), Seed: 35,
			Dataset: d, MaxInput: model.Llama31_8B.MaxContext,
		})
		for _, cfg := range []core.Config{core.SllmCS(), core.SLINFER()} {
			cells = append(cells, cell{d, cfg, tr})
		}
	}
	res.Rows = sweep(len(cells), func(i int) []string {
		c := cells[i]
		rep := runSystem(c.cfg, hwsim.Testbed(4, 4), models, c.tr)
		return []string{
			c.d.Name, c.cfg.Name,
			f2(rep.AvgNodesUsed[hwsim.CPU]), f2(rep.AvgNodesUsed[hwsim.GPU]),
			f1(rep.DecodeSpeed[hwsim.CPU]), f1(rep.DecodeSpeed[hwsim.GPU]),
			f3(rep.SLORate),
		}
	})
	return res
}

func runQuant(s Scale) Result {
	res := Result{
		ID: "quant", Title: "serving 32 x 22B models: FP16 vs INT4 (§X)",
		Header: []string{"precision", "gpus_used", "slo_rate", "cold_starts"},
	}
	n := 16
	if s == Full {
		n = 32
	}
	precs := []model.Precision{model.FP16, model.INT4}
	res.Rows = sweep(len(precs), func(i int) []string {
		prec := precs[i]
		base := model.Codestral22B.Quantized(prec)
		models, names := replicaNames(base, n)
		tr := workload.Generate(workload.TraceConfig{
			ModelNames: names, Duration: traceMinutes(s), Seed: 36,
			Dataset: workload.AzureConv, MaxInput: 4096,
		})
		c, rep := runSystemCtl(core.SLINFER(), hwsim.Testbed(0, 6), models, tr)
		return []string{
			prec.String(), f2(rep.AvgNodesUsed[hwsim.GPU]), f3(rep.SLORate),
			fmt.Sprint(c.Collector.ColdStarts),
		}
	})
	res.Notes = append(res.Notes, "fp16 22B weights (~44GB) block colocation on 80GB GPUs; int4 (~11GB) shares")
	return res
}

func runAblFIFO(s Scale) Result {
	res := Result{
		ID: "abl-fifo", Title: "headroom vs FIFO iteration scheduling (64 x 7B)",
		Header: []string{"scheduler", "slo_rate", "met", "total"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 40)
	variants := []struct {
		label string
		token bool
	}{{"headroom", true}, {"fifo", false}}
	res.Rows = sweep(len(variants), func(i int) []string {
		p := variants[i]
		cfg := core.SLINFER()
		cfg.TokenLevelSched = p.token
		rep := runSystem(cfg, hwsim.Testbed(4, 4), models, tr)
		return []string{p.label, f3(rep.SLORate), fmt.Sprint(rep.Met), fmt.Sprint(rep.Total)}
	})
	return res
}

func runAblMargin(s Scale) Result {
	res := Result{
		ID: "abl-margin", Title: "shadow-validation margin sweep (64 x 7B)",
		Header: []string{"margin", "slo_rate", "cpu_nodes", "gpu_nodes"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 41)
	margins := []float64{1.0, 1.25}
	if s == Full {
		margins = []float64{1.0, 1.10, 1.25, 1.50}
	}
	res.Rows = sweep(len(margins), func(i int) []string {
		m := margins[i]
		cfg := core.SLINFER()
		cfg.Overestimate = m
		rep := runSystem(cfg, hwsim.Testbed(4, 4), models, tr)
		return []string{
			f2(m), f3(rep.SLORate), f2(rep.AvgNodesUsed[hwsim.CPU]), f2(rep.AvgNodesUsed[hwsim.GPU]),
		}
	})
	return res
}
