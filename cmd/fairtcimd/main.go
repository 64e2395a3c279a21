// Command fairtcimd is the persistent (Fair)TCIM serving daemon: it loads
// named graphs once, keeps warm RIS sketches and Monte-Carlo world sets in
// a keyed LRU cache, and answers seed-selection and spread-estimation
// queries over HTTP/JSON (see internal/server for the API).
//
//	fairtcimd -addr :8732 -graph prod=net.txt -graph staging=small.txt
//	fairtcimd -addr :8732 -cache 64 -max-concurrent 8
//	fairtcimd -addr :8732 -state-dir /var/lib/fairtcim
//
// With -state-dir the daemon restarts warm: every built RIS sketch and
// Monte-Carlo world set is written through to <dir>/sketches and reloaded
// on demand after a restart (no re-sampling), and finished-job history is
// journaled to <dir>/jobs.jsonl so GET /v1/jobs survives restarts. Files
// are validated (magic, codec version, checksum, graph fingerprint)
// before use; anything stale or corrupt falls back to a cold build.
//
// Built-in synthetic graphs "twoblock" (the paper's §6.1 two-group SBM)
// and "twostars" (the deterministic parity fixture) are registered unless
// -no-builtin is given, so the daemon is immediately usable:
//
//	curl -s localhost:8732/v1/select -d '{"graph":"twoblock","problem":"p4","budget":10,"engine":"ris"}'
//	curl -s localhost:8732/v1/jobs -d '{"graph":"twoblock","problem":"p4","accuracy":{"epsilon":0.2,"delta":0.05}}'
//	curl -s localhost:8732/v1/graphs
//	curl -s localhost:8732/v1/stats
//
// Batched queries: POST /v1/select/batch answers many specs in one
// request, coalescing compatible ones onto shared sketch passes and
// shared CELF runs with per-query answers bit-identical to /v1/select;
// -coalesce-window extends the same batching to concurrent /v1/select
// traffic transparently.
//
// Graphs are dynamic: POST /v1/graphs/{name}/updates applies an atomic
// batch of edge/group deltas, bumping the graph's version. Cached RIS
// sketches carry over to the new version by resampling only the RR sets
// an update actually touched (tune with -refresh-threshold); persisted
// sketch files are version-keyed, and -state-max-bytes/-state-max-age
// bound the state dir as update churn accumulates files.
//
// Sharded multi-replica serving: with -peers and -self each replica
// joins a consistent-hash ring over (graph, query-spec) keys, proxying
// requests it does not own to the owner with bounded failover, fetching
// warm sketches from peers over GET /v1/sketches/{key} instead of
// rebuilding, and fanning out graph updates so the fleet converges on
// one version. With -route the daemon is instead a stateless routing
// tier in front of such a fleet (no graphs of its own). -probe-interval
// tunes peer health probes; ring membership reacts to probe results.
//
//	fairtcimd -addr :8732 -self http://a:8732 -peers http://b:8732
//	fairtcimd -addr :8730 -route http://a:8732,http://b:8732
//
// Observability: GET /metrics serves Prometheus text metrics (per-route
// request counters and latency histograms plus cache/worker/cluster
// counters), and -request-log writes one JSON line per request to a
// file or stderr (-).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fairtcimd:", err)
		os.Exit(1)
	}
}

// options is the parsed daemon configuration.
type options struct {
	addr            string
	graphs          map[string]string // name -> path
	noBuiltin       bool
	cacheSize       int
	maxConc         int
	queueTimeout    time.Duration
	shutdownTimeout time.Duration
	parallelism     int
	maxJobs         int
	jobRetention    int
	stateDir        string
	stateMaxBytes   int64
	stateMaxAge     time.Duration
	refreshThresh   float64
	coalesceWindow  time.Duration
	peers           []string // other replicas' base URLs (peer-aware mode)
	self            string   // this replica's advertised base URL
	route           []string // router mode: replica URLs to route across
	probeInterval   time.Duration
	requestLog      string // access-log path; "-" = stderr
}

// splitURLs parses a comma-separated URL list, dropping empties.
func splitURLs(v string) []string {
	var out []string
	for _, u := range strings.Split(v, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("fairtcimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{graphs: map[string]string{}}
	fs.StringVar(&o.addr, "addr", ":8732", "listen address")
	fs.Func("graph", "register a graph as name=path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		if _, dup := o.graphs[name]; dup {
			return fmt.Errorf("duplicate graph name %q", name)
		}
		o.graphs[name] = path
		return nil
	})
	fs.BoolVar(&o.noBuiltin, "no-builtin", false, "skip the built-in synthetic graphs")
	fs.IntVar(&o.cacheSize, "cache", 32, "cached estimator samples (LRU entries)")
	fs.IntVar(&o.maxConc, "max-concurrent", 0, "concurrent solves; 0 = GOMAXPROCS")
	fs.DurationVar(&o.queueTimeout, "queue-timeout", 10*time.Second, "max wait for a worker slot before shedding 503")
	fs.DurationVar(&o.shutdownTimeout, "shutdown-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	fs.IntVar(&o.parallelism, "parallelism", 0, "per-solve worker count; 0 = GOMAXPROCS")
	fs.IntVar(&o.maxJobs, "max-jobs", 0, "async jobs queued or running at once; 0 = 64")
	fs.IntVar(&o.jobRetention, "job-retention", 0, "finished jobs kept for /v1/jobs history; 0 = 256")
	fs.StringVar(&o.stateDir, "state-dir", "", "warm-restart state directory (persisted sketches + job history); empty = in-memory only")
	fs.Int64Var(&o.stateMaxBytes, "state-max-bytes", 0, "total size bound for <state-dir>/sketches; least-recently-used files are deleted over it; 0 = unbounded")
	fs.DurationVar(&o.stateMaxAge, "state-max-age", 0, "drop persisted sketches untouched for this long (e.g. 720h); 0 = unbounded")
	fs.Float64Var(&o.refreshThresh, "refresh-threshold", 0, "dirty RR-set fraction above which a graph update rebuilds sketches instead of refreshing incrementally; 0 = default 0.75")
	fs.DurationVar(&o.coalesceWindow, "coalesce-window", 0, "batch concurrent /v1/select requests arriving within this window onto shared solves (e.g. 5ms); 0 = solve each immediately")
	fs.Func("peers", "comma-separated base URLs of the other replicas; enables peer-aware sharded serving (requires -self)", func(v string) error {
		o.peers = append(o.peers, splitURLs(v)...)
		return nil
	})
	fs.StringVar(&o.self, "self", "", "this replica's advertised base URL, exactly as it appears in the peers' -peers lists")
	fs.Func("route", "router mode: comma-separated replica base URLs to route requests across (serves no graphs itself)", func(v string) error {
		o.route = append(o.route, splitURLs(v)...)
		return nil
	})
	fs.DurationVar(&o.probeInterval, "probe-interval", 0, "peer health-probe period; 0 = 2s")
	fs.StringVar(&o.requestLog, "request-log", "", "structured JSON access log destination: a file path, or - for stderr; empty = off")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(o.route) > 0 && (len(o.peers) > 0 || o.self != "" || len(o.graphs) > 0 || o.stateDir != "") {
		return nil, fmt.Errorf("-route is a pure routing tier and excludes -peers, -self, -graph and -state-dir")
	}
	o.self = strings.TrimRight(o.self, "/")
	return o, nil
}

// buildRegistry wires the configured file graphs plus built-in synthetics.
func buildRegistry(o *options) (*server.Registry, error) {
	reg := server.NewRegistry()
	if !o.noBuiltin {
		if err := reg.Register("twoblock", "synthetic:twoblock", func() (*graph.Graph, error) {
			return generate.TwoBlock(generate.DefaultTwoBlock(1))
		}); err != nil {
			return nil, err
		}
		if err := reg.Register("twostars", "synthetic:twostars", func() (*graph.Graph, error) {
			return generate.TwoStars(), nil
		}); err != nil {
			return nil, err
		}
	}
	for name, path := range o.graphs {
		if err := reg.RegisterFile(name, path); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// openRequestLog resolves the -request-log flag: "" disables the access
// log, "-" writes to stderr, anything else appends to that file.
func openRequestLog(path string, stderr io.Writer) (io.Writer, func(), error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-":
		return stderr, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening request log: %w", err)
	}
	return f, func() { f.Close() }, nil
}

// run parses flags, builds the server (or, with -route, the standalone
// router) and serves until ctx is cancelled (main wires an
// interrupt/SIGTERM context). A non-nil ready channel receives the bound
// address once listening — used by tests to avoid races.
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- string) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	reqLog, closeLog, err := openRequestLog(o.requestLog, stderr)
	if err != nil {
		return err
	}
	defer closeLog()

	var handler http.Handler
	runProbes := func(context.Context) {}
	closeServer := func() {}
	var banner string
	if len(o.route) > 0 {
		rt, err := server.NewRouter(server.RouterConfig{
			Replicas:      o.route,
			ProbeInterval: o.probeInterval,
			RequestLog:    reqLog,
		})
		if err != nil {
			return err
		}
		handler = rt.Handler()
		runProbes = rt.RunProbes
		banner = fmt.Sprintf("routing across %s", strings.Join(o.route, ", "))
	} else {
		reg, err := buildRegistry(o)
		if err != nil {
			return err
		}
		srv, err := server.New(server.Config{
			Registry:          reg,
			CacheSize:         o.cacheSize,
			MaxConcurrent:     o.maxConc,
			QueueTimeout:      o.queueTimeout,
			SolverParallelism: o.parallelism,
			MaxJobs:           o.maxJobs,
			JobRetention:      o.jobRetention,
			StateDir:          o.stateDir,
			StateMaxBytes:     o.stateMaxBytes,
			StateMaxAge:       o.stateMaxAge,
			RefreshThreshold:  o.refreshThresh,
			CoalesceWindow:    o.coalesceWindow,
			Peers:             o.peers,
			SelfURL:           o.self,
			ProbeInterval:     o.probeInterval,
			RequestLog:        reqLog,
		})
		if err != nil {
			return err
		}
		handler = srv.Handler()
		runProbes = srv.RunClusterProbes
		closeServer = srv.Close
		banner = fmt.Sprintf("graphs: %s", strings.Join(reg.Names(), ", "))
		if len(o.peers) > 0 {
			banner += fmt.Sprintf("; peers: %s", strings.Join(o.peers, ", "))
		}
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: handler}
	errc := make(chan error, 1)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fairtcimd: listening on %s (%s)\n", ln.Addr(), banner)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	probeCtx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	go runProbes(probeCtx)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), o.shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// Sketch persistence is write-behind; drain it so a restart on
		// the same state dir finds everything this process built.
		closeServer()
		return nil
	}
}
