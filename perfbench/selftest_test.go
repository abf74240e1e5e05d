package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The benchmark's self-test, at minimal size: every workload runs
// untraced and traced, every metric BENCHMARK.json names is printed with
// its unit and lands in the result line, and a corrupted expected output
// raises error_rate above 0. Run it from this directory:
//
//	go test -timeout 15m .

type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runMinimal runs one workload at minimal size and returns its printed
// output and parsed result line.
func runMinimal(t *testing.T, name string, trace, corrupt bool) (string, resultLine) {
	t.Helper()
	o := opts{seed: 7, seconds: 0.5, trace: trace, jobs: 2, setupReps: 1, corrupt: corrupt}
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		r := newResult()
		if err := w.run(context.Background(), o, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := r.write(&buf, o); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", name, err)
		}
		return buf.String(), res
	}
	t.Fatalf("no workload %q", name)
	return "", resultLine{}
}

type resultLine struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]metric
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				out, res := runMinimal(t, w.Name, trace, false)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				want, kind := spec.EndToEnd, "metric"
				if trace {
					want, kind = spec.PerLayer, "layer"
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s: result line has %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out, fmt.Sprintf("%s %-40s", kind, m.Name)) {
						t.Errorf("%s is not printed as a %s line", m.Name, kind)
					}
				}
				if !strings.Contains(out, "info error_rate") {
					t.Error("error_rate is not printed")
				}
			})
		}
	}
}

func TestCorruptedExpectedOutputFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, res := runMinimal(t, w.name, false, true)
			if res.Correct || res.Failed == 0 {
				t.Errorf("a corrupted expected output went unnoticed: correct %v, %d of %d failed\n%s",
					res.Correct, res.Failed, res.Attempted, out)
			}
			if rate := printedValue(out, "info", "error_rate"); rate <= 0 {
				t.Errorf("error_rate printed as %g\n%s", rate, out)
			}
		})
	}
}

// printedValue returns the value of the first "<kind> <name> <value>
// <unit>" line of out, or -1.
func printedValue(out, kind, name string) float64 {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == kind && f[1] == name {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				return v
			}
		}
	}
	return -1
}
