package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/internal/serve"
)

// cmdServe runs the NoC timing daemon: a long-running server answering
// WCTT/WCET queries and whole scenario specs over the JSON-line protocol
// (see PROTOCOL.md). By default it serves stdin/stdout; -listen adds a TCP
// transport and -http an HTTP one, all sharing one worker pool and the
// scenario layer's caches. Stdin EOF, SIGINT and SIGTERM all drain
// gracefully: admitted lines are answered, then every transport shuts down.
func cmdServe(args []string, w io.Writer) error {
	return serveOn(args, os.Stdin, w)
}

// serveOn is cmdServe with the stdin stream injectable for tests.
func serveOn(args []string, in io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "", "also serve the line protocol on this TCP address (e.g. :9000)")
	httpAddr := fs.String("http", "", "also serve HTTP on this address (POST = protocol lines, GET = stats)")
	workers := fs.Int("workers", 0, "request workers shared across all transports; 0 = GOMAXPROCS")
	queue := fs.Int("queue", 0, "per-connection response queue depth (the backpressure bound); 0 = default")
	maxInflight := fs.Int("max-inflight", 0, "admitted-but-unanswered lines across all transports before excess lines are answered with the retryable \"overloaded\" error; 0 = unbounded (backpressure only)")
	queryTimeout := fs.Duration("query-timeout", 0, "deadline budget per query verb (wctt, batch, wcet, wcet-batch); 0 = none")
	scenarioTimeout := fs.Duration("scenario-timeout", 0, "deadline budget per scenario verb; 0 = none")
	pprofAddr := fs.String("pprof", "", "expose net/http/pprof on this address")
	noStdin := fs.Bool("no-stdin", false, "do not serve stdin/stdout (daemon mode; requires -listen or -http)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *noStdin && *listen == "" && *httpAddr == "" {
		return fmt.Errorf("serve: -no-stdin with neither -listen nor -http leaves nothing to serve")
	}
	if *workers < 0 || *queue < 0 {
		return fmt.Errorf("serve: negative -workers or -queue")
	}
	if *maxInflight < 0 || *queryTimeout < 0 || *scenarioTimeout < 0 {
		return fmt.Errorf("serve: negative -max-inflight or timeout")
	}

	srv := serve.NewServer(serve.Config{
		Workers:         *workers,
		Queue:           *queue,
		MaxInflight:     *maxInflight,
		QueryTimeout:    *queryTimeout,
		ScenarioTimeout: *scenarioTimeout,
	})
	defer srv.Close()
	ctx := context.Background()

	if *pprofAddr != "" {
		// Profiling sidecar on the default mux, which carries only the
		// net/http/pprof handlers; failures must not take the daemon down.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "noctool serve: pprof: %v\n", err)
			}
		}()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	var hsrv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "noctool serve: listening on %s\n", ln.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.ServeListener(ctx, ln); err != nil {
				errCh <- err
			}
		}()
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "noctool serve: http on %s\n", ln.Addr())
		hsrv = &http.Server{Handler: srv.Handler()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				errCh <- err
			}
		}()
	}

	// drain stops admission everywhere, answers what was admitted, then lets
	// the transport loops finish.
	drain := func() {
		srv.Shutdown()
		if hsrv != nil {
			_ = hsrv.Shutdown(context.Background())
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			fmt.Fprintln(os.Stderr, "noctool serve: draining")
			drain()
		}
	}()

	var stdinErr error
	if !*noStdin {
		// Stdin closing drains the whole daemon, so piped batch runs with
		// auxiliary listeners exit cleanly at EOF.
		stdinErr = srv.ServeLines(ctx, in, w)
		drain()
	}
	wg.Wait()
	signal.Stop(sig)
	close(sig)
	if stdinErr != nil {
		return stdinErr
	}
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}
