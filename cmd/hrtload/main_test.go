package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"hrtsched/internal/plan"
	"hrtsched/internal/serve"
)

// TestRunModesCheck drives every mode for a short run against an
// in-process hrtd stack (a query server plus a 4-node cluster) and
// requires -check to pass.
func TestRunModesCheck(t *testing.T) {
	spec := plan.Spec{OverheadNs: 4_600, UtilizationLimit: 0.79}
	srv, err := serve.New(serve.Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := serve.NewCluster(serve.ClusterConfig{Spec: spec, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.RegisterMetrics(srv.Registry())
	ts := httptest.NewServer(srv.HandlerWithCluster(cl))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	for _, mode := range []string{"query", "cluster", "batch", "dag", "simulate", "status"} {
		t.Run(mode, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-addr", addr, "-mode", mode, "-dur", "100ms", "-conns", "2", "-check"},
				&stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
		})
	}
}
