// Command perfbench is the repository's benchmark: it runs the
// simulator as users run it (sim.Run with the engine defaults, one run
// after another on one goroutine) on the paper's DD-POLICE workloads,
// checks every run's outputs, and prints end-to-end metrics from a
// timed pass and per-layer metrics from a traced pass. See README.md.
//
// Usage:
//
//	bash perfbench/run.sh --workload paper-2k --seed 1 --seconds 38 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; --trace 0 reports the
// end-to-end metrics there, --trace 1 the per-layer ones. --workload all
// runs every workload and prefixes each metric with its workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 38, "host seconds one workload run measures")
	traceFlag := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d, want at least 1", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace %d, want 0 or 1", *traceFlag)
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	st, err := json.Marshal(map[string]stamp{"stamp": newStamp(*seed, *seconds, selected)})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(st))

	res := result{Metrics: make(map[string]metricValue)}
	for _, w := range selected {
		out, err := benchWorkload(w, *seed, time.Duration(*seconds)*time.Second)
		if err != nil {
			return err
		}
		for _, f := range out.failures {
			fmt.Fprintf(stderr, "%s: FAILED %s\n", w.name, f)
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		printTable(stdout, w.name, out)
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		for _, d := range metricDefs {
			if d.endToEnd == (*traceFlag == 0) {
				res.Metrics[prefix+d.name] = metricValue{out.metrics[d.name], d.unit}
			}
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// printTable writes every metric of one workload run, end-to-end and
// per-layer, with its unit, direction and clock.
func printTable(w io.Writer, name string, out *outcome) {
	fmt.Fprintf(w, "workload %s: %d runs, %d failed\n", name, out.attempted, out.failed)
	for _, d := range metricDefs {
		kind := "per-layer"
		if d.endToEnd {
			kind = "end-to-end"
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-12s %-6s better  %-6s %s\n",
			d.name, out.metrics[d.name], d.unit, d.better, d.clock, kind)
	}
}
