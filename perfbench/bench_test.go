package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ddpolice/internal/sim"
	"ddpolice/internal/telemetry"
)

// tiny shrinks a workload to a few hundred peers and two simulated
// minutes, keeping its agent density, churn and police settings.
func tiny(w workload) workload {
	full := w.config
	w.runs = 1
	w.config = func() sim.Config {
		cfg := full()
		const peers = 400
		if cfg.NumAgents > 0 {
			cfg.NumAgents = max(1, cfg.NumAgents*peers/cfg.NumPeers)
		}
		cfg.NumPeers = peers
		cfg.DurationSec = 120
		cfg.AttackStartSec = min(cfg.AttackStartSec, 60)
		return cfg
	}
	return w
}

// withTinyWorkloads swaps the workload table for its tiny form for the
// duration of the test.
func withTinyWorkloads(t *testing.T) {
	t.Helper()
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = nil
	for _, w := range saved {
		workloads = append(workloads, tiny(w))
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesMetricDefs keeps BENCHMARK.json, which the
// benchmark's users read, in step with what the program reports.
func TestBenchmarkFileMatchesMetricDefs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	type entry struct {
		unit, better string
		endToEnd     bool
	}
	declared := make(map[string]entry)
	for _, m := range bf.EndToEnd {
		declared[m.Name] = entry{m.Unit, m.Better, true}
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = entry{m.Unit, m.Better, false}
	}
	if len(declared) != len(metricDefs) {
		t.Errorf("BENCHMARK.json declares %d metrics, the program reports %d", len(declared), len(metricDefs))
	}
	for _, d := range metricDefs {
		if got, want := declared[d.name], (entry{d.unit, d.better, d.endToEnd}); got != want {
			t.Errorf("%s: BENCHMARK.json has %+v, program has %+v", d.name, got, want)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestTinyRunEmitsEveryMetric runs every workload at a tiny size in
// both report modes and checks the result line carries exactly the
// mode's metrics with their units, and the table every metric with its
// unit and direction.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	withTinyWorkloads(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace}
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%s trace %s: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d; stderr:\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			want := 0
			for _, d := range metricDefs {
				if d.endToEnd != (trace == "0") {
					continue
				}
				want++
				mv, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", w.name, trace, d.name)
				} else if mv.Unit != d.unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.name, mv.Unit, d.unit)
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), want)
			}
			for _, d := range metricDefs {
				row := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + `\s+\S+\s+` +
					regexp.QuoteMeta(d.unit) + `\s+` + d.better + `\s+better\s+` + d.clock + `\s`)
				if !row.MatchString(stdout.String()) {
					t.Errorf("%s: table has no row for %s with unit %s, %s better, clock %s", w.name, d.name, d.unit, d.better, d.clock)
				}
			}
		}
	}
}

func TestWallAndSetupArePositive(t *testing.T) {
	withTinyWorkloads(t)
	out, err := benchWorkload(workloads[0], 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wall_s", "setup_s", "ns_per_peer_tick", "allocs_per_tick", "state_heap_mb"} {
		if out.metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.metrics[name])
		}
	}
	if out.metrics["setup_s"] >= out.metrics["wall_s"] {
		t.Errorf("setup_s %v not below wall_s %v", out.metrics["setup_s"], out.metrics["wall_s"])
	}
}

// TestOutputCheckTripsOnPerturbedResult checks that a run whose
// simulated outputs differ from an earlier run of the same seed fails,
// that execution-only fields do not count, and that each workload's
// shape check and the stage reconciliation reject a bad run.
func TestOutputCheckTripsOnPerturbedResult(t *testing.T) {
	w := tiny(workloads[0])
	cfg := w.configs(9)[0]
	o := runOp(cfg)
	if o.err != nil {
		t.Fatal(o.err)
	}
	var want string
	if err := checkOp(w, o, &want); err != nil {
		t.Fatalf("unperturbed run fails: %v", err)
	}

	perturbations := map[string]func(r *sim.Result){
		"success":  func(r *sim.Result) { r.OverallSuccess += 1e-12 },
		"minute":   func(r *sim.Result) { r.Minutes[0].Issued++ },
		"overhead": func(r *sim.Result) { r.Overhead.NeighborListMsgs++ },
		"agents":   func(r *sim.Result) { r.AgentIDs = r.AgentIDs[1:] },
	}
	for name, perturb := range perturbations {
		r := *o.res
		r.Minutes = append(r.Minutes[:0:0], r.Minutes...)
		perturb(&r)
		p := o
		p.res = &r
		w2 := want
		if err := checkOp(w, p, &w2); err == nil {
			t.Errorf("perturbed %s passes the output check", name)
		}
	}

	r := *o.res
	r.Cache.Hits += 100
	r.Stages = []telemetry.Stage{{Name: "flood", Total: time.Millisecond}}
	r.Telemetry = &telemetry.Snapshot{}
	p := o
	p.res = &r
	if err := checkOp(w, p, &want); err != nil {
		t.Errorf("cache, stage and telemetry fields changed the digest: %v", err)
	}
	p.wall = time.Microsecond
	if err := reconcile(p); err == nil {
		t.Error("stage timers above the wall time pass reconciliation")
	}

	bad := map[string]func(r *sim.Result){
		"paper-2k":           func(r *sim.Result) { r.OverallSuccess = undefendedSuccess },
		"quiet-2k-static":    func(r *sim.Result) { r.Detections = 1 },
		"attack-100k-static": func(r *sim.Result) { r.Detections = 0 },
	}
	for name, perturb := range bad {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		r := *o.res
		r.Detections, r.CutEdges, r.FalsePositives = 1, 0, 0
		r.OverallSuccess = 0.9
		perturb(&r)
		if err := w.check(&r); err == nil {
			t.Errorf("%s: shape check passes a bad run", name)
		}
	}
}

func TestStampIsPopulated(t *testing.T) {
	s := newStamp(7, 30, workloads)
	if s.NumCPU < 1 || s.GOMAXPROCS < 1 {
		t.Errorf("nproc %d, GOMAXPROCS %d", s.NumCPU, s.GOMAXPROCS)
	}
	if !strings.HasPrefix(s.GoVersion, "go") {
		t.Errorf("Go version %q", s.GoVersion)
	}
	if s.CPUModel == "" || s.GitRev == "" {
		t.Errorf("CPU model %q, git rev %q", s.CPUModel, s.GitRev)
	}
	if s.Seed != 7 || s.Seconds != 30 {
		t.Errorf("seed %d, seconds %d", s.Seed, s.Seconds)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for _, w := range workloads {
		h := s.ConfigHash[w.name]
		if !hex.MatchString(h) {
			t.Errorf("%s: config hash %q", w.name, h)
		}
		if seen[h] {
			t.Errorf("%s: config hash %s shared with another workload", w.name, h)
		}
		seen[h] = true
		if again := configHash(w); again != h {
			t.Errorf("%s: config hash not stable: %s then %s", w.name, h, again)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-2k", "--trace", "2"},
		{"--workload", "paper-2k", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%v: no error", args)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

func TestSeedDerivation(t *testing.T) {
	for _, w := range workloads {
		a, b := w.configs(1), w.configs(1)
		c := w.configs(2)
		seen := make(map[uint64]bool)
		for i := range a {
			if a[i].Seed != b[i].Seed {
				t.Errorf("%s: run %d seed not reproducible", w.name, i)
			}
			if a[i].Seed == c[i].Seed || seen[a[i].Seed] {
				t.Errorf("%s: run %d seed collides", w.name, i)
			}
			seen[a[i].Seed] = true
		}
	}
}
