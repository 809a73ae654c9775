package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	minUntracedReps = 3
	minTracedPairs  = 2
	maxReps         = 60
	childTimeout    = 150 * time.Second
	// setupOnlyReps extra children per untraced repetition sample setup_s
	// alone; each costs about as much as one set-up.
	setupOnlyReps = 4
	// calRefS is the calibrate time that defines the reference host speed.
	// Host times are reported as measured × calRefS / the child's own
	// calibrate time: what they would have read at the reference speed. A
	// shared host's speed swings by 1.5-2x within minutes, and the simulator
	// slows with it; the scaling takes that swing out of the comparison of
	// two commits. The raw times stay in the report line.
	calRefS = 0.05
)

// scaled converts a host time measured in a child to the reference speed.
func scaled(s float64, r rep) float64 { return s * calRefS / r.res.CalS }

// rep is one finished child process.
type rep struct {
	res    childResult
	setupS float64
	rssMB  float64
	err    error
}

// spawn runs one repetition in a fresh process, so the exp baseline cache
// and the security memo start empty, and collects its peak RSS.
func spawn(name string, seed uint64, traced bool) rep {
	tr := "-trace=0"
	if traced {
		tr = "-trace=1"
	}
	return spawnChild(name, seed, tr)
}

// spawnSetup runs only a repetition's set-up in a fresh process.
func spawnSetup(name string, seed uint64) rep { return spawnChild(name, seed, "-setup-only") }

func spawnChild(name string, seed uint64, mode string) rep {
	exe, err := os.Executable()
	if err != nil {
		return rep{err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10), mode)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	started := time.Now()
	if err := cmd.Run(); err != nil {
		return rep{err: fmt.Errorf("child %s seed %d: %w", name, seed, err)}
	}
	var r rep
	if err := json.Unmarshal(out.Bytes(), &r.res); err != nil {
		return rep{err: fmt.Errorf("child %s seed %d: bad result: %w", name, seed, err)}
	}
	if r.res.Err == "" && !(r.res.CalS > 0) {
		return rep{err: fmt.Errorf("child %s seed %d: no calibration time", name, seed)}
	}
	r.setupS = float64(r.res.ReadyAt-started.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return r
}

// checker counts attempted and failed points. A point fails when its
// repetition errs or crashes, or when its output differs from a reference:
// the recorded output for this seed when there is one, and the first
// untraced and first traced repetitions of the run, so every run also
// checks that fresh processes agree and that tracing changes nothing.
type checker struct {
	points            int
	refs              [][]pointOutput
	attempted, failed int
	firstFailure      string
}

func newChecker(name string, seed uint64) (*checker, error) {
	c := &checker{points: pointsOf(name)}
	want, err := expectedOutputs(name, seed)
	if want != nil {
		c.refs = append(c.refs, want)
	}
	return c, err
}

func pointsOf(name string) int {
	if name == "fig8" {
		return fig8Points
	}
	return 1
}

func (c *checker) check(r rep, firstOfKind bool) bool {
	c.attempted += c.points
	bad := c.points
	switch {
	case r.err != nil:
		c.fail(r.err.Error())
	case r.res.Err != "":
		c.fail(r.res.Err)
	case len(r.res.Outputs) != c.points:
		c.fail(fmt.Sprintf("%d outputs, want %d", len(r.res.Outputs), c.points))
	default:
		if firstOfKind {
			c.refs = append(c.refs, r.res.Outputs)
		}
		bad = 0
		for i, got := range r.res.Outputs {
			for _, ref := range c.refs {
				if ref[i].Name != got.Name || !match(ref[i], got) {
					bad++
					c.fail(fmt.Sprintf("point %s: output %s differs from reference %s", got.Name, mustJSON(got), mustJSON(ref[i])))
					break
				}
			}
		}
	}
	c.failed += bad
	return bad == 0
}

func (c *checker) fail(msg string) {
	if c.firstFailure == "" {
		c.firstFailure = msg
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
}

// summary is a metric's distribution over one run's repetitions.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := quartiles(s)
	return summary{Median: median(s), Q1: q[0], Q3: q[2], Min: s[0], Max: s[len(s)-1], N: len(s), Values: v}
}

// report is the line printed before the result: every sample behind each
// reported median, the run's point counts, and the code-size trajectory.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	// Raw holds the untraced host times before scaling to the reference
	// speed, and the calibrate times they were scaled by.
	Raw        map[string]summary `json:"raw,omitempty"`
	Lines      map[string]int     `json:"go_lines"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
}

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

// drive runs the workload for the given time, one fresh process per
// repetition, and prints the report and the result line. In trace mode it
// alternates untraced and traced repetitions.
func drive(name string, seed uint64, seconds int, traced bool) error {
	def, err := readBenchmark(benchmarkPath)
	if err != nil {
		return err
	}
	if !slices.Contains(def.workloadNames(), name) {
		return fmt.Errorf("unknown workload %q (have %v)", name, def.workloadNames())
	}
	lines, err := goLines(".")
	if err != nil {
		return err
	}
	chk, err := newChecker(name, seed)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	samples, raw := map[string][]float64{}, map[string][]float64{}
	var tracedWall, children []float64
	nUntraced, nTraced := 0, 0
	for n := 0; n < maxReps; n++ {
		enough := nUntraced >= minUntracedReps && (!traced || nTraced >= minTracedPairs)
		if enough && time.Now().After(deadline) {
			break
		}
		r := spawn(name, seed, false)
		if chk.check(r, nUntraced == 0) {
			wall := scaled(r.res.WallS, r)
			samples["wall_s"] = append(samples["wall_s"], wall)
			samples["setup_s"] = append(samples["setup_s"], scaled(r.setupS, r))
			samples["sim_us_per_s"] = append(samples["sim_us_per_s"], r.res.SimUS/wall)
			raw["wall_s"] = append(raw["wall_s"], r.res.WallS)
			raw["setup_s"] = append(raw["setup_s"], r.setupS)
			raw["cal_s"] = append(raw["cal_s"], r.res.CalS)
			samples["alloc_mb"] = append(samples["alloc_mb"], float64(r.res.AllocBytes)/1e6)
			samples["max_rss_mb"] = append(samples["max_rss_mb"], r.rssMB)
			samples["security.secure_raaimt_s"] = append(samples["security.secure_raaimt_s"], r.res.SecureRAAIMTS)
		}
		for k := 0; k < setupOnlyReps && !traced; k++ {
			s := spawnSetup(name, seed)
			if s.err == nil && s.res.Err == "" {
				samples["setup_s"] = append(samples["setup_s"], scaled(s.setupS, s))
				raw["setup_s"] = append(raw["setup_s"], s.setupS)
				raw["cal_s"] = append(raw["cal_s"], s.res.CalS)
			} else {
				// The full repetitions run the same set-up and count its failures.
				fmt.Fprintln(os.Stderr, "perfbench: set-up-only child failed:", s.err, s.res.Err)
			}
		}
		nUntraced++
		if !traced {
			continue
		}
		t := spawn(name, seed, true)
		if chk.check(t, nTraced == 0) {
			tracedWall = append(tracedWall, scaled(t.res.WallS, t))
			children = append(children, t.res.ChildrenS)
			for k, v := range t.res.Layers {
				samples[k] = append(samples[k], v)
			}
		}
		nTraced++
	}
	rep := report{Workload: name, Seed: seed, Trace: traced, Attempted: chk.attempted, Failed: chk.failed,
		Metrics: map[string]summary{}, Raw: map[string]summary{}, Lines: lines, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	enc := json.NewEncoder(os.Stdout)
	untraced := samples["wall_s"]
	if len(untraced) == 0 || (traced && len(tracedWall) == 0) {
		// The report still goes out, so a comparison sees the failed points.
		if err := enc.Encode(map[string]report{"report": rep}); err != nil {
			return err
		}
		return fmt.Errorf("%s: no repetition succeeded: %s", name, chk.firstFailure)
	}

	defs := def.EndToEnd
	if traced {
		defs = def.PerLayer
		samples["trace_overhead_frac"] = []float64{median(tracedWall)/median(untraced) - 1}
		samples["ops_failed_frac"] = []float64{float64(chk.failed) / float64(chk.attempted)}
		if c := median(children); c > 0 {
			// The replays' times are raw, so the untraced time is too.
			samples["sim.self_s"] = []float64{median(raw["wall_s"]) - c}
		}
	}
	for k, v := range raw {
		rep.Raw[k] = summarize(v)
	}
	res := result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := samples[d.Name]
		if len(v) == 0 {
			v = []float64{0} // the layer does no work on this workload
		}
		s := summarize(v)
		rep.Metrics[d.Name] = s
		res.Metrics[d.Name] = metricValue{Value: s.Median, Unit: d.Unit}
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %-6s  n=%-3d q1=%-12.6g q3=%-12.6g\n", d.Name, s.Median, d.Unit, s.N, s.Q1, s.Q3)
	}
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: non-finite metric in %+v", name, res.Metrics)
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d/%d points failed\n", name, seed, chk.failed, chk.attempted)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		return err
	}
	return enc.Encode(res)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

func equalJSON(a, b any) bool { return mustJSON(a) == mustJSON(b) }
