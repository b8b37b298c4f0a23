// Command bench is the repository's benchmark of record. Each workload
// runs end to end: the real serve.Server in process on loopback TCP,
// driven by an in-process load generator over at most two connections,
// or the paper's offline PGD loop (Fig. 1). Every output is checked
// against an oracle and every metric is printed by name with its unit.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with -trace 1 the per-layer metrics of a separate traced replay.
//
//	bash bench/run.sh -workload closed-fp32 -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload all -seed 1     # each workload in a child process
//	bash bench/run.sh -repeat 5                 # medians and spreads per workload
//
// The served and attacked models come from a fixed model seed, so the
// program under test is the same for every -seed; -seed only generates
// the inputs. See README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
)

// Workload names, in the order -workload all and -repeat run them.
var workloads = []string{"closed-fp32", "closed-int8", "paced-aqf", "offline-pgd"}

type config struct {
	workload string
	seed     uint64
	// seconds is the measured duration; a tenth of it runs first as
	// discarded warm-up.
	seconds float64
	trace   bool
	// out is where -trace writes its span files.
	out string
	// tamper corrupts the oracle (window 0's class in every recording,
	// or the reference round), so a correct program must fail the
	// check: the negative test's hook.
	tamper bool
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var trace, repeat int
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloads, ", ")+" or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run, after a tenth as much warm-up")
	fs.IntVar(&trace, "trace", 0, "1 replays the inputs through each layer with spans and reports the per-layer metrics")
	fs.IntVar(&repeat, "repeat", 0, "run each workload this many times, alternating workloads, and report medians and spreads")
	fs.StringVar(&cfg.out, "out", "bench/out", "directory for -trace span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be positive, got %v\n", cfg.seconds)
		return 2
	}
	names := workloads
	if cfg.workload != "all" {
		if !slices.Contains(workloads, cfg.workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s or all)\n", cfg.workload, strings.Join(workloads, ", "))
			return 2
		}
		names = []string{cfg.workload}
	}
	switch {
	case repeat > 0:
		return runRepeat(cfg, names, repeat, stdout)
	case cfg.workload == "all":
		return runAll(cfg, stdout)
	default:
		return execute(cfg, stdout)
	}
}

// execute runs one workload in this process and prints its report. The
// exit status is 0 only when every output matched its oracle.
func execute(cfg config, stdout io.Writer) int {
	fmt.Fprintf(stdout, "# env %s\n", environment())
	fmt.Fprintf(stdout, "# workload %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	rep, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.print(stdout)
	line, err := json.Marshal(rep.result(cfg.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.correct() {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d outputs failed their check\n", cfg.workload, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

func runWorkload(cfg config, stdout io.Writer) (*report, error) {
	if cfg.workload == "offline-pgd" {
		return runOffline(cfg, stdout)
	}
	return runServe(cfg, stdout)
}

// runAll runs every workload in a fresh child process and ends with one
// JSON line whose metric names are prefixed with their workload.
func runAll(cfg config, stdout io.Writer) int {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	status := 0
	for _, w := range workloads {
		res, err := runChild(cfg, w, cfg.seed, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			status = 1
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		status = 1
	}
	return status
}

// runChild re-executes this binary on one workload, copying its report
// to stdout, and returns the result from its last line.
func runChild(cfg config, w string, seed uint64, stdout io.Writer) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.out)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return res, err
	}
	if scanErr != nil {
		return res, scanErr
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("reading result line: %w", err)
	}
	return res, nil
}

// environment describes the machine and build a number was measured on.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "+dirty"
		}
	}
	return e
}

func environment() string {
	e := currentEnv()
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s", e.NProc, e.GOMAXPROCS, e.Go, e.Commit)
}
