package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/netv3"
)

// spec is the part of BENCHMARK.json the catalogue must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: catalogue %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, s.EndToEnd)
	check("per_layer", perLayer, s.PerLayer)
}

// runJSON runs the command line and decodes its result line.
func runJSON(t *testing.T, args ...string) (int, map[string]jsonMetric, bool) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--workdir", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	if out.Attempted < 1 {
		t.Errorf("attempted = %d", out.Attempted)
	}
	return code, out.Metrics, out.Correct
}

// Every workload, in a short window, emits every catalogued metric with
// its unit: the gated set untraced, all nonzero, and the per-layer set
// traced.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				code, m, ok := runJSON(t, "--workload", w, "--seed", "3", "--seconds", "1",
					"--trace", string(rune('0'+trace)))
				if code != 0 || !ok {
					t.Fatalf("trace %d: exit %d, correct %v", trace, code, ok)
				}
				if len(m) != len(defs) {
					t.Errorf("trace %d: %d metrics, want %d", trace, len(m), len(defs))
				}
				for _, d := range defs {
					got, found := m[d.name]
					switch {
					case !found:
						t.Errorf("trace %d: %s missing", trace, d.name)
					case got.Unit != d.unit:
						t.Errorf("trace %d: %s unit %q, want %q", trace, d.name, got.Unit, d.unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("%s = %v, want > 0", d.name, got.Value)
					}
				}
				if trace == 1 && (w == hotRead.name || w == missMixed.name) {
					// The nine client stage columns tile the measured latency.
					if r := m["netv3.stage_residual_pct"].Value; r < -10 || r > 10 {
						t.Errorf("stage columns are %.1f%% off the measured mean latency", r)
					}
				}
				if trace == 1 {
					var sum float64
					for k, v := range m {
						if strings.HasPrefix(k, "cpu_share.") {
							sum += v.Value
						}
					}
					if sum < 99.999 || sum > 100.001 {
						t.Errorf("cpu shares sum to %v, want 100", sum)
					}
				}
			}
		})
	}
}

// flipStore is a store with one bad byte: the first access picks a
// byte in the middle of its range, and from then on every read returns
// that byte flipped and every write stores it flipped. The checks of both
// live workloads must notice.
type flipStore struct {
	netv3.BlockStore
	mu     sync.Mutex
	target int64 // -1 until the first access
}

func (f *flipStore) covers(off int64, n int) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.target < 0 {
		f.target = off + int64(n)/2
	}
	return f.target - off, f.target >= off && f.target < off+int64(n)
}

func (f *flipStore) ReadAt(b []byte, off int64) error {
	err := f.BlockStore.ReadAt(b, off)
	if i, ok := f.covers(off, len(b)); ok {
		b[i] ^= 0x20
	}
	return err
}

func (f *flipStore) WriteAt(b []byte, off int64) error {
	if i, ok := f.covers(off, len(b)); ok {
		b = append([]byte(nil), b...) // the caller's buffer stays intact
		b[i] ^= 0x20
	}
	return f.BlockStore.WriteAt(b, off)
}

func TestInjectedFaultFailsLiveChecks(t *testing.T) {
	for _, spec := range []liveSpec{hotRead, missMixed} {
		t.Run(spec.name, func(t *testing.T) {
			o := opts{
				seed: 5, seconds: time.Second, workdir: t.TempDir(), warmup: 200 * time.Millisecond,
				wrapStore: func(bs netv3.BlockStore) netv3.BlockStore {
					return &flipStore{BlockStore: bs, target: -1}
				},
			}
			res, err := runLive(spec, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.correct() {
				t.Fatal("a flipped byte passed the correctness checks")
			}
			t.Logf("caught: %s", res.problems[0])
		})
	}
}

// The same short runs without the fault pass, so the test above fails
// for the fault and not for the set-up.
func TestCleanLiveRunsPass(t *testing.T) {
	for _, spec := range []liveSpec{hotRead, missMixed} {
		t.Run(spec.name, func(t *testing.T) {
			o := opts{seed: 5, seconds: time.Second, workdir: t.TempDir(), warmup: 200 * time.Millisecond}
			res, err := runLive(spec, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("clean run failed its checks: %v", res.problems)
			}
		})
	}
}
