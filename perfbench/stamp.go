package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// stamp is the provenance printed with every result, so two result
// files can be checked for comparability before their numbers are.
type stamp struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	CPUModel   string            `json:"cpu_model"`
	GitRev     string            `json:"git_rev"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	ConfigHash map[string]string `json:"config_hash"`
}

func newStamp(seed uint64, seconds int, ws []workload) stamp {
	s := stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitRev:     gitRev(),
		Seed:       seed,
		Seconds:    seconds,
		ConfigHash: make(map[string]string),
	}
	for _, w := range ws {
		s.ConfigHash[w.name] = configHash(w)
	}
	return s
}

// configHash hashes the workload's sim.Config template (seed zero) and
// its cycle length: equal hashes mean the same inputs for equal seeds.
func configHash(w workload) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v runs=%d", w.config(), w.runs)))
	return hex.EncodeToString(h[:8])
}

// gitRev is the VCS revision the Go toolchain stamped into the binary,
// with "+dirty" for a modified tree, or "unknown" when the benchmark was
// built outside a git checkout.
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
