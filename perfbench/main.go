// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload closed-loop with one op in flight, replays a fixed op list in
// whole passes for a wall-clock budget, checks every op's output, writes a
// per-op record, and prints one JSON result line as its last stdout line:
//
//	bash perfbench/run.sh --workload attack-extract --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that times the calls into each layer from this package and reports the
// per-layer metrics. README.md maps every metric to its layer, workload and
// the end-to-end number it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultWorkloadSeed selects each workload's fixed op list: the
	// engine run whose trials (or the grid whose cells) every run replays.
	// Every op's outcome at this seed is pinned by a committed file.
	defaultWorkloadSeed = 2
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 3
	// passCap bounds the passes of one run on a very fast host.
	passCap = 32
)

// config is one run's parameters.
type config struct {
	workload string
	// seed orders the ops within every pass (and the grid's axes); the
	// op SET is fixed by wseed, so runs at different seeds do the same
	// work. Runs use defaultWorkloadSeed; tests pick another op set.
	seed    uint64
	wseed   uint64
	seconds float64
	trace   bool
	// work holds the run's scratch files (checkpoint logs); removed at exit.
	work string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the line the benchmark prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// opRecord is one op as the per-run record file stores it.
type opRecord struct {
	// Pass is the op's pass, or -1 for a set-up warm-up op.
	Pass int `json:"pass"`
	// Op is the op's index in the fixed list: a trial index of the
	// workload seed's engine run, or a cell index in the canonical grid.
	Op   int    `json:"op"`
	Seed uint64 `json:"seed"`
	// CPUS is the op's host time as process CPU seconds (what the metrics
	// use); WallS its wall-clock seconds.
	CPUS      float64 `json:"cpu_s"`
	WallS     float64 `json:"wall_s"`
	SimCycles uint64  `json:"sim_cycles"`
	Outcome   any     `json:"outcome"`
	// Traced holds the traced run's phase host seconds for this op.
	Traced map[string]float64 `json:"traced,omitempty"`
	// Failed says why the op failed; empty when it passed every check.
	Failed string `json:"failed,omitempty"`
}

func (o *opRecord) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if o.Failed == "" {
		o.Failed = msg
	} else {
		o.Failed += "; " + msg
	}
}

// machineNote describes the host a run measured on.
type machineNote struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"loadavg_at_start"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run (from /proc/stat).
	StealFrac float64 `json:"steal_frac"`
}

// record is the per-run record file.
type record struct {
	Workload     string      `json:"workload"`
	Seed         uint64      `json:"seed"`
	WorkloadSeed uint64      `json:"workload_seed"`
	Seconds      float64     `json:"seconds"`
	Trace        bool        `json:"trace"`
	Machine      machineNote `json:"machine"`
	Ops          []opRecord  `json:"ops"`
	Result       result      `json:"result"`
}

// workloads maps each workload name to its runner, which returns every
// checked op and the run's metrics.
var workloads = map[string]func(cfg config) ([]opRecord, metricSet, error){
	"attack-extract": func(cfg config) ([]opRecord, metricSet, error) { return runAttack(cfg, extractWorkload) },
	"keyrecovery":    func(cfg config) ([]opRecord, metricSet, error) { return runAttack(cfg, keyRecoveryWorkload) },
	"campaign-grid":  func(cfg config) ([]opRecord, metricSet, error) { return runGrid(cfg, defaultGrid) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "orders the ops within each pass")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measuring budget; a run completes whole passes")
	traceN := fs.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end run")
	out := fs.String("out", ".bench_build", "directory for per-run records and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[cfg.workload]
	if !ok || fs.NArg() > 0 || cfg.seconds <= 0 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg.trace = *traceN == 1
	cfg.wseed = defaultWorkloadSeed
	note := machine()
	steal0, total0 := cpuStat()

	work, err := os.MkdirTemp(mkdir(*out, "tmp"), cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work

	ops, ms, err := runW(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	steal1, total1 := cpuStat()
	note.StealFrac = ratio(steal1-steal0, total1-total0)
	res := tally(ops, ms)
	rec := record{Workload: cfg.workload, Seed: cfg.seed, WorkloadSeed: cfg.wseed, Seconds: cfg.seconds,
		Trace: cfg.trace, Machine: note, Ops: ops, Result: res}
	path := filepath.Join(mkdir(*out, "records"), fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, *traceN, os.Getpid()))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	summarize(stderr, rec, path)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// tally counts checked ops and failures into the result line.
func tally(ops []opRecord, ms metricSet) result {
	res := result{Attempted: len(ops), Metrics: ms}
	for _, o := range ops {
		if o.Failed != "" {
			res.Failed++
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	return res
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mkdir returns dir/sub, created if missing (a failure surfaces at the
// first file written there).
func mkdir(dir, sub string) string {
	p := filepath.Join(dir, sub)
	_ = os.MkdirAll(p, 0o755)
	return p
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summarize prints one line per op and the record's path on stderr.
func summarize(w io.Writer, rec record, path string) {
	fmt.Fprintf(w, "perfbench: %s seed=%d workload_seed=%d trace=%v nproc=%d gomaxprocs=%d %s load=%s steal=%.3f\n",
		rec.Workload, rec.Seed, rec.WorkloadSeed, rec.Trace, rec.Machine.NProc, rec.Machine.GOMAXPROCS,
		rec.Machine.GoVersion, rec.Machine.LoadAvg, rec.Machine.StealFrac)
	for _, o := range rec.Ops {
		status := "ok"
		if o.Failed != "" {
			status = "FAILED: " + o.Failed
		}
		fmt.Fprintf(w, "  pass=%d op=%d seed=%d cpu=%.3fs wall=%.3fs sim=%d %s\n", o.Pass, o.Op, o.Seed, o.CPUS, o.WallS, o.SimCycles, status)
	}
	fmt.Fprintf(w, "perfbench: %d ops, %d failed; record %s\n", rec.Result.Attempted, rec.Result.Failed, path)
}

func machine() machineNote {
	load, _ := os.ReadFile("/proc/loadavg")
	f := strings.Fields(string(load))
	if len(f) > 3 {
		f = f[:3]
	}
	return machineNote{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), LoadAvg: strings.Join(f, " ")}
}

// cpuStat returns the machine's stolen and total CPU ticks so far: the
// "cpu" line of /proc/stat, user through steal. Zero when unreadable.
func cpuStat() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// goStats is a runtime/metrics reading; goDelta accumulates the
// differences across op boundaries.
type goStats struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goStats{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64()}
}

type goDelta struct {
	ops                  int
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func (d *goDelta) add(from, to goStats) {
	d.ops++
	d.allocBytes += to.allocBytes - from.allocBytes
	d.gcCycles += to.gcCycles - from.gcCycles
	d.gcCPU += to.gcCPU - from.gcCPU
	d.totalCPU += to.totalCPU - from.totalCPU
}

func (d goDelta) report(m metricSet) {
	m.set("go.alloc_mb_per_op", ratio(float64(d.allocBytes)/(1<<20), float64(d.ops)), "MiB")
	m.set("go.gc_cycles_per_op", ratio(float64(d.gcCycles), float64(d.ops)), "count")
	m.set("go.gc_cpu_frac", ratio(d.gcCPU, d.totalCPU), "ratio")
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// passLoop decides when a run stops: only after a whole pass, and once
// starting another would overrun the budget by more than half a pass. So
// every run's op mix is whole passes of the fixed list whatever the host's
// speed.
type passLoop struct {
	seconds float64
	start   time.Time
	passes  int
}

func (l *passLoop) begin() { l.start = time.Now() }

// endPass records a finished pass and reports whether to run another.
func (l *passLoop) endPass() bool {
	l.passes++
	el := time.Since(l.start).Seconds()
	return l.passes < passCap && el+el/float64(l.passes)/2 <= l.seconds
}

// perLayer names every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"classify.train_s", "s"},
	{"attack.collect_s", "s"},
	{"psd.train_s", "s"},
	{"attack.scan_s", "s"},
	{"attack.extract_s", "s"},
	{"evset.build_s", "s"},
	{"scenario.tail_s", "s"},
	{"evset.build.sets", "count"},
	{"attack.scan.sets", "count"},
	{"evset.build.host_ns_per_kcycle", "ns/kcycle"},
	{"attack.scan.host_ns_per_kcycle", "ns/kcycle"},
	{"attack.extract.host_ns_per_kcycle", "ns/kcycle"},
	{"attack.bits_frac", "ratio"},
	{"campaign.cell_s.evset-bins", "s"},
	{"campaign.cell_s.probe-detect", "s"},
	{"campaign.cell_s.tenant-poisson", "s"},
	{"campaign.cell_s.tenant-burst", "s"},
	{"campaign.cell_s.tenant-stream", "s"},
	{"campaign.cell_s.policy-LRU", "s"},
	{"campaign.cell_s.policy-Tree-PLRU", "s"},
	{"campaign.cell_s.policy-SRRIP", "s"},
	{"campaign.cell_s.policy-QLRU", "s"},
	{"campaign.cell_s.policy-Random", "s"},
	{"campaign.resume_s", "s"},
	{"artifact.open_s", "s"},
	{"campaign.log_bytes", "bytes"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

func zeroLayers() metricSet {
	ms := metricSet{}
	for _, l := range perLayer {
		ms.set(l.name, 0, l.unit)
	}
	return ms
}

// cpuTime is the process's user plus system CPU time since it started.
// Every host time the benchmark reports is a difference of two readings:
// on a shared VM, wall time also counts the time the hypervisor gives to
// other tenants, and CPU time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
