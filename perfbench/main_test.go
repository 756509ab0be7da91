package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchSpec is the full BENCHMARK.json, for the checks on its shape.
type benchSpec struct {
	spec
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs one workload in short mode and returns its output and
// the parsed result line.
func runShort(t *testing.T, workload string, traced, wrong bool) (string, result) {
	t.Helper()
	e := &env{workload: workload, seed: 5, seconds: 0.5, root: "..",
		scratch: t.TempDir(), short: true, wrongAnswer: wrong}
	var out bytes.Buffer
	if err := run(&out, e, traced); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return out.String(), res
}

// checkPrinted asserts every metric of want is printed with its unit and
// a sample count, and carried in the result line with that unit.
func checkPrinted(t *testing.T, workload, out string, res result, want []specMetric) {
	t.Helper()
	for _, m := range want {
		line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) +
			` +\S+ +` + regexp.QuoteMeta(m.Unit) + ` +\(n=\d+\)$`)
		if !line.MatchString(out) {
			t.Errorf("%s: metric %s not printed with unit %s and a sample count", workload, m.Name, m.Unit)
		}
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("%s: result line lacks %s in %s", workload, m.Name, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: result line has %d metrics, spec names %d", workload, len(res.Metrics), len(want))
	}
	if !strings.Contains(out, "\nhost {") {
		t.Errorf("%s: no host fingerprint", workload)
	}
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line reason", w.Name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				out, res := runShort(t, w.Name, traced, false)
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("failed %d of %d\n%s", res.Failed, res.Attempted, out)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				checkPrinted(t, w.Name, out, res, want)
			})
		}
	}
}

// A deliberately wrong expected answer must land in failed_frac, not
// pass silently.
func TestWrongAnswerIsCounted(t *testing.T) {
	for _, w := range readSpec(t).Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, res := runShort(t, w.Name, false, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted oracle went unnoticed: %+v\n%s", res, out)
			}
			if !regexp.MustCompile(`(?m)^metric failed_frac +[0-9.e-]+ ratio`).MatchString(out) ||
				strings.Contains(out, "metric failed_frac                                   0 ratio") {
				t.Errorf("failed_frac not reported as nonzero\n%s", out)
			}
		})
	}
}

func TestEveryLayerMetricHasAnExpectation(t *testing.T) {
	for _, m := range readSpec(t).PerLayer {
		if _, ok := expect(m.Name); !ok {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", m.Name)
		}
	}
}
