package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// The benchmark re-executes its own binary for the work that must start in
// a fresh process: sweep workers, cold analysis grids and serve windows.
// childEnv selects the role.
const childEnv = "PERFBENCH_CHILD"

// Child roles.
const (
	roleHello       = "hello" // answer and exit: the process start-up cost
	roleWorker      = "worker"
	roleGrid        = "grid"
	roleGridTraced  = "grid-traced"
	roleServe       = "serve"
	roleServeTraced = "serve-traced"
)

// runChild runs one child role and returns the exit code.
func runChild(role string) int {
	ctx := context.Background()
	var err error
	switch role {
	case roleHello:
		_, err = fmt.Println("ok")
	case roleWorker:
		err = sweep.ServeWorker(ctx, os.Stdin, os.Stdout, sweep.WorkerHooks{})
	case roleGrid, roleGridTraced:
		err = gridChild(ctx, role == roleGridTraced)
	case roleServe, roleServeTraced:
		err = serveChild(ctx, role == roleServeTraced)
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", role, err)
		return 1
	}
	return 0
}

// childRun is what the parent measures of one child: its wall time, from
// start to exit, and its peak resident set in MiB.
type childRun struct {
	wall  time.Duration
	rssMB float64
}

// spawn runs this binary in the given child role with input on stdin and
// returns its stdout.
func spawn(role string, input []byte) ([]byte, childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, childRun{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	cmd.Stdin = bytes.NewReader(input)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	run := childRun{wall: time.Since(t0)}
	if err != nil {
		return nil, run, fmt.Errorf("child %s: %w", role, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return stdout.Bytes(), run, nil
}

// spawnJSON is spawn with JSON in and out.
func spawnJSON(role string, in, out any) (childRun, error) {
	input, err := json.Marshal(in)
	if err != nil {
		return childRun{}, err
	}
	raw, run, err := spawn(role, input)
	if err != nil {
		return run, err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return run, fmt.Errorf("child %s output: %w", role, err)
	}
	return run, nil
}

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 21

// jobs is the load parallelism: one goroutine, connection or worker
// process per CPU, at most two.
func jobs() int { return min(2, runtime.NumCPU()) }

// executeAll runs every spec through scenario.Execute on the given number
// of goroutines and returns the encoded results and each spec's execution
// time. It is the in-process reference the workloads' outputs are checked
// against.
func executeAll(specs []scenario.Spec, workers int) ([][]byte, []time.Duration, error) {
	enc := make([][]byte, len(specs))
	took := make([]time.Duration, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				t0 := time.Now()
				r, err := scenario.Execute(specs[i])
				took[i] = time.Since(t0)
				if err == nil {
					enc[i], err = json.Marshal(r)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", specs[i].Name, err)
		}
	}
	return enc, took, nil
}
