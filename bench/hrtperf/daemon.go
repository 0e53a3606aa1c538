package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hrtsched/internal/route"
	"hrtsched/internal/serve"
)

// target is one running instance of the system under test.
type target struct {
	base string   // http://host:port
	pid  int      // process whose /proc counters are the daemon's
	args []string // daemon flags, for the run metadata
	// stop shuts the instance down in order and waits for it.
	stop func() error
	// kill stops it abruptly and waits; durable state stays on disk.
	kill func() error
}

// A launcher starts the system under test for one workload.
type launcher interface {
	start(ctx context.Context, d daemonSpec, dataDir string) (*target, error)
}

// procLauncher runs hrtd as a child process.
type procLauncher struct {
	bin string
}

// readyTimeout bounds how long a daemon may take to boot (and recover).
// readyPoll is how often boot progress is polled: short against the few
// milliseconds a boot takes, so polling adds little to setup_s.
const (
	readyTimeout = 60 * time.Second
	readyPoll    = 250 * time.Microsecond
)

func (p procLauncher) start(ctx context.Context, d daemonSpec, dataDir string) (*target, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	addrFile := dataDir + ".addr"
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	args := append(d.args(dataDir), "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd := exec.Command(p.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hrtd: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	waitExit := func() error {
		select {
		case <-exited:
			return nil
		case <-time.After(20 * time.Second):
			cmd.Process.Kill() //nolint:errcheck // escalation; the wait below reports
			<-exited
			return errors.New("hrtd did not stop within 20s; killed")
		}
	}
	t := &target{
		pid:  cmd.Process.Pid,
		args: args,
		stop: func() error {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				return err
			}
			return waitExit()
		},
		kill: func() error {
			if err := cmd.Process.Kill(); err != nil {
				return err
			}
			<-exited
			return nil
		},
	}
	addr, err := waitAddr(ctx, addrFile, exited)
	if err != nil {
		t.kill() //nolint:errcheck // already failing
		return nil, err
	}
	t.base = "http://" + addr
	if err := waitHealthy(ctx, t.base); err != nil {
		t.kill() //nolint:errcheck // already failing
		return nil, err
	}
	return t, nil
}

// waitAddr polls for the address hrtd writes once it is listening.
func waitAddr(ctx context.Context, path string, exited <-chan error) (string, error) {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && strings.HasSuffix(string(b), "\n") {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case err := <-exited:
			return "", fmt.Errorf("hrtd exited during boot: %v", err)
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(readyPoll):
		}
	}
	return "", fmt.Errorf("hrtd wrote no address within %v", readyTimeout)
}

func waitHealthy(ctx context.Context, base string) error {
	h := &http.Client{Timeout: 2 * time.Second}
	defer h.CloseIdleConnections()
	deadline := time.Now().Add(readyTimeout)
	for {
		status, _, err := get(ctx, h, base+"/healthz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hrtd not healthy within %v: status %d, %v", readyTimeout, status, err)
		}
		time.Sleep(readyPoll)
	}
}

// inProcLauncher serves the same stack hrtd would build from the same
// flags, in this process on a loopback listener. The tests use it; the
// ladder's round-trip rungs use the stack directly. Its kill is an orderly
// close: only the child-process launcher can crash a daemon.
type inProcLauncher struct{}

func (inProcLauncher) start(_ context.Context, d daemonSpec, dataDir string) (*target, error) {
	st, err := newStack(d, dataDir)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(st.handler)
	stop := func() error {
		ts.Close()
		st.close()
		return nil
	}
	return &target{base: ts.URL, pid: os.Getpid(), args: d.args(dataDir), stop: stop, kill: stop}, nil
}

// stack is the in-process composition cmd/hrtd builds for its flags.
type stack struct {
	srv      *serve.Server
	clusters []*serve.Cluster
	router   *route.Router
	handler  http.Handler
}

func newStack(d daemonSpec, dataDir string) (*stack, error) {
	srv, err := serve.New(serve.Config{Spec: spec})
	if err != nil {
		return nil, err
	}
	st := &stack{srv: srv}
	policy := serve.FirstFit
	if d.policy != "" {
		if policy, err = serve.ParsePolicy(d.policy); err != nil {
			st.close()
			return nil, err
		}
	}
	newCluster := func(nodes int, dir string, reg *serve.Registry) (*serve.Cluster, error) {
		cfg := serve.ClusterConfig{Spec: spec, Nodes: nodes, Policy: policy}
		if d.durable {
			cfg.Durability = &serve.DurabilityConfig{Dir: dir}
		}
		c, err := serve.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		st.clusters = append(st.clusters, c)
		c.RegisterMetrics(reg)
		return c, nil
	}
	switch {
	case d.groups > 1:
		part := route.PartitionNodes(d.nodes, d.groups)
		groups := make([]route.Group, d.groups)
		for g := range groups {
			reg := srv.Registry().Labeled(serve.Label{Key: "group", Value: strconv.Itoa(g)})
			c, err := newCluster(len(part[g]), filepath.Join(dataDir, fmt.Sprintf("group-%d", g)), reg)
			if err != nil {
				st.close()
				return nil, err
			}
			groups[g] = route.NewLocalGroupWithServer(c, srv)
		}
		if st.router, err = route.New(groups, route.Config{Partition: part}); err != nil {
			st.close()
			return nil, err
		}
		st.router.RegisterMetrics(srv.Registry())
		st.handler = st.router.Handler(srv.Handler())
	case d.nodes > 0:
		c, err := newCluster(d.nodes, dataDir, srv.Registry())
		if err != nil {
			st.close()
			return nil, err
		}
		st.handler = srv.HandlerWithCluster(c)
	default:
		st.handler = srv.Handler()
	}
	return st, nil
}

func (st *stack) close() {
	for _, c := range st.clusters {
		c.Close()
	}
	st.srv.Close()
}
