package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
)

// setRunner runs whole sets of the benchmark: every workload, several
// untraced passes each, every run a child process invoked exactly as
// the acceptance driver invokes it, so that what a set measures is
// what the driver will see.
type setRunner struct {
	root      string
	seed      int64
	seconds   int
	passes    int
	trace     bool
	workloads []workload
}

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOne runs one workload once in a child process, relays its report,
// and returns its result line.
func (s *setRunner) runOne(w string, seed int64, trace int) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(s.seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	// A signal that ends this process reaches the child as SIGTERM, and
	// the child takes its servers down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, runErr := cmd.Output()
	os.Stdout.Write(out)
	last := ""
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v): %v", w, runErr, err)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s seed %d: run failed (%v): attempted %d, failed %d", w, seed, runErr, res.Attempted, res.Failed)
	}
	return res, nil
}

// values is workload -> metric -> one value per pass.
type values map[string]map[string][]float64

// set runs one set: the untraced passes interleaved over the workloads
// (A B C D A B C D, so each workload's passes are spread over the
// set's whole duration and slow minutes of the machine fall on all of
// them alike), then one traced run of each workload.
func (s *setRunner) set(index int) (values, error) {
	vals := values{}
	for pass := 0; pass < s.passes; pass++ {
		seed := s.seed + int64(index*s.passes+pass)
		for _, w := range s.workloads {
			res, err := s.runOne(w.name, seed, 0)
			if err != nil {
				return nil, err
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				vals[w.name][name] = append(vals[w.name][name], m.Value)
			}
		}
	}
	if s.trace {
		for _, w := range s.workloads {
			if _, err := s.runOne(w.name, s.seed+int64(index), 1); err != nil {
				return nil, err
			}
		}
	}
	return vals, nil
}

// main runs one set, or with selfcheck > 0 that many, and prints per
// workload and end-to-end metric the median over passes and their
// quartile spread. The self-check then applies the acceptance rule of
// this benchmark to its own runs: every spread but set-up's within the
// metric's bound, and no set's median worse than the set before it by
// more than the bound.
func (s *setRunner) main(selfcheck int) error {
	var c contract
	raw, err := os.ReadFile(filepath.Join(s.root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &c)
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sets := make([]values, max(1, selfcheck))
	for i := range sets {
		if sets[i], err = s.set(i); err != nil {
			return err
		}
	}

	fmt.Printf("\n%d set(s) of %d passes x %d s per workload; median over passes (quartile spread as a share of the median)\n\n", len(sets), s.passes, s.seconds)
	fmt.Printf("| workload | metric | bound |%s worst move | verdict |\n", strings.Repeat(" set |", len(sets)))
	fmt.Printf("|---|---|---|%s---|---|\n", strings.Repeat("---|", len(sets)))
	bad := 0
	for _, w := range s.workloads {
		for _, m := range c.EndToEnd {
			row := fmt.Sprintf("| %s | %s | %.2f |", w.name, m.Name, m.Bound)
			verdict := "ok"
			worst, prev := 0.0, math.NaN()
			for _, set := range sets {
				xs := set[w.name][m.Name]
				med, spread := median(xs), quartileSpread(xs)
				row += fmt.Sprintf(" %.4g (%.1f%%) |", med, 100*spread)
				if selfcheck > 0 && m.Name != "setup_s" && len(xs) >= 4 && spread > m.Bound {
					verdict = "SPREAD"
				}
				if !math.IsNaN(prev) {
					move := (med - prev) / prev // positive: grew
					if m.Better == "higher" {
						move = -move
					}
					worst = max(worst, move)
				}
				prev = med
			}
			if worst > m.Bound {
				verdict = "MOVED"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("%s %.1f%% | %s |\n", row, 100*worst, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d metric x workload pairs outside their bound", bad)
	}
	return nil
}
