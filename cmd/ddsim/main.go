// Command ddsim runs one overlay-DDoS simulation scenario and prints a
// per-minute report plus the aggregate metrics.
//
// Example:
//
//	ddsim -peers 2000 -agents 10 -police -ct 5 -duration 30m
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"ddpolice"
	"ddpolice/internal/journal"
	"ddpolice/internal/metricsrv"
	"ddpolice/internal/outfile"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/trace"
)

// writeTrace dumps the tracer by output extension: .json gets Chrome
// trace-event JSON (load in Perfetto), anything else NDJSON (feed to
// ddtrace).
func writeTrace(tr *trace.Tracer, path string) error {
	return outfile.Write(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".json") {
			return tr.WriteChromeTrace(w)
		}
		return tr.WriteNDJSON(w)
	})
}

func main() {
	var (
		peers    = flag.Int("peers", 2000, "number of logical peers")
		agents   = flag.Int("agents", 0, "number of DDoS agents")
		policeOn = flag.Bool("police", false, "enable DD-POLICE")
		ct       = flag.Float64("ct", 5, "cut threshold CT")
		warn     = flag.Float64("warn", 500, "warning threshold (queries/min)")
		exchange = flag.Duration("exchange", 2*time.Minute, "neighbor-list exchange period")
		duration = flag.Duration("duration", 30*time.Minute, "simulated duration")
		start    = flag.Duration("attack-start", 5*time.Minute, "attack start time")
		churn    = flag.Bool("churn", true, "enable peer churn")
		seed     = flag.Uint64("seed", 1, "random seed")
		perMin   = flag.Bool("minutes", false, "print the per-minute table")
		events   = flag.String("events", "", "write a JSON-lines event log to this file")
		metrics  = flag.String("metrics", "", "serve /metrics, /healthz, /journal and /trace on this address while the run executes")
		jfile    = flag.String("journal", "", "write the detection-event journal (NDJSON) to this file")
		traceOut = flag.String("trace-out", "", "write causal traces to this file (.json = Chrome/Perfetto, else NDJSON)")
		traceSmp = flag.Float64("trace-sample", 1.0, "head-sampling rate for traces (0..1)")
	)
	flag.Parse()

	cfg := ddpolice.DefaultConfig()
	cfg.NumPeers = *peers
	cfg.NumAgents = *agents
	cfg.PoliceEnabled = *policeOn
	cfg.Police.CutThreshold = *ct
	cfg.Police.WarnThreshold = *warn
	cfg.Police.ExchangePeriod = exchange.Seconds()
	cfg.DurationSec = int(duration.Seconds())
	cfg.AttackStartSec = int(start.Seconds())
	cfg.ChurnEnabled = *churn
	cfg.Seed = *seed
	var eventsFile *outfile.File
	if *events != "" {
		f, err := outfile.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddsim:", err)
			os.Exit(1)
		}
		cfg.Events = f
		eventsFile = f
	}
	if *metrics != "" || *jfile != "" {
		cfg.Journal = journal.New(1 << 16)
	}
	if *traceOut != "" || *metrics != "" {
		cfg.Trace = trace.New(*traceSmp, 0)
	}
	if *metrics != "" {
		cfg.Registry = telemetry.New()
		cfg.Journal.AttachTelemetry(cfg.Registry)
		srv, err := metricsrv.Serve(*metrics, metricsrv.Config{
			Registry: cfg.Registry,
			Journal:  cfg.Journal,
			Tracer:   cfg.Trace,
			Health: func() map[string]any {
				return map[string]any{"peers": *peers, "agents": *agents, "seed": *seed}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddsim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s\n", srv.Addr())
	}

	res, err := ddpolice.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddsim:", err)
		os.Exit(1)
	}
	// The event log streamed during the run; a full disk only surfaces
	// at flush time, and swallowing it would report a truncated log as
	// a successful run.
	if eventsFile != nil {
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ddsim:", err)
			os.Exit(1)
		}
	}
	if *jfile != "" {
		if err := outfile.Write(*jfile, cfg.Journal.WriteNDJSON); err != nil {
			fmt.Fprintln(os.Stderr, "ddsim:", err)
			os.Exit(1)
		}
		fmt.Printf("journal: %d events -> %s (%d dropped)\n",
			cfg.Journal.Len(), *jfile, cfg.Journal.Dropped())
	}
	if *traceOut != "" {
		if err := writeTrace(cfg.Trace, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "ddsim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans in %d traces -> %s (%d dropped)\n",
			cfg.Trace.Len(), cfg.Trace.TraceCount(), *traceOut, cfg.Trace.Dropped())
	}

	fmt.Printf("peers=%d agents=%d police=%v duration=%s seed=%d\n",
		*peers, *agents, *policeOn, duration, *seed)
	fmt.Printf("queries issued:        %d\n", res.QueriesIssued)
	fmt.Printf("overall success rate:  %.1f%%\n", res.OverallSuccess*100)
	fmt.Printf("mean response time:    %.3f s (p50 %.3f, p95 %.3f)\n",
		res.MeanResponseTime, res.ResponseP50, res.ResponseP95)
	fmt.Printf("mean hops to first hit:%.2f\n", res.MeanHitHops)
	fmt.Printf("mean traffic cost:     %.0f msgs/min\n", res.MeanTraffic)
	fmt.Printf("attack volume:         %.0f msgs\n", res.AttackVolume)
	if *policeOn {
		fmt.Printf("detections:            %d\n", res.Detections)
		fmt.Printf("false negatives:       %d (good peers wrongly cut)\n", res.FalseNegatives)
		fmt.Printf("false positives:       %d (agents never identified)\n", res.FalsePositives)
		fmt.Printf("edges cut:             %d\n", res.CutEdges)
		fmt.Printf("control overhead:      %d msgs (%d list, %d neighbor-traffic, %d verify)\n",
			res.Overhead.Total(), res.Overhead.NeighborListMsgs,
			res.Overhead.NeighborTrafficMsgs, res.Overhead.VerifyMsgs)
	}

	if *perMin {
		fmt.Println()
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "minute\tonline\tissued\tsucceeded\tsuccess(%)\ttraffic\tcontrol")
		for i, m := range res.Minutes {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.1f\t%.0f\t%.0f\n",
				i, m.OnlinePeers, m.Issued, m.Succeeded, m.SuccessRate()*100,
				m.TrafficCost(), m.ControlMsgs)
		}
		w.Flush()
	}
}
