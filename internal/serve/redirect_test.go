package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hrtsched/internal/route"
	"hrtsched/internal/serve"
)

// TestFollowerRedirectIsIdenticalServedAndRouted posts mutations to a
// replication follower, once straight through HandlerWithCluster and once
// through a one-group router over the same cluster. Both stacks answer
// 307 to the same path on the leader with byte-identical not_leader
// bodies, and hrtd_repl_redirects_total counts exactly the 307s the
// cluster answers itself.
func TestFollowerRedirectIsIdenticalServedAndRouted(t *testing.T) {
	follower := serve.ReplicatedFollower(t, 23)
	srv, err := serve.New(serve.Config{Spec: serve.TestSpec})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(srv.Close)
	unrouted := httptest.NewServer(srv.HandlerWithCluster(follower))
	t.Cleanup(unrouted.Close)
	r, err := route.New([]route.Group{route.NewLocalGroupWithServer(follower, srv)}, route.Config{})
	if err != nil {
		t.Fatalf("route.New: %v", err)
	}
	routed := httptest.NewServer(r.Handler(srv.Handler()))
	t.Cleanup(routed.Close)

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	post := func(base, path, body string) (int, string, string) {
		t.Helper()
		resp, err := noFollow.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Location"), string(b)
	}
	redirects := func() int64 { return follower.Status().Replication.Redirects }

	for _, tc := range []struct{ path, body string }{
		{"/v1/cluster/place", `{"id":"r-1","tasks":[{"period_ns":100000,"slice_ns":10000}]}`},
		{"/v1/cluster/place-batch", `{"items":[{"id":"r-2","tasks":[{"period_ns":100000,"slice_ns":10000}]},` +
			`{"id":"r-3","tasks":[{"period_ns":100000,"slice_ns":10000}]}]}`},
	} {
		for range 2 {
			want := strings.TrimSuffix(follower.Status().Replication.LeaderURL, "/") + tc.path
			before := redirects()
			uCode, uLoc, uBody := post(unrouted.URL, tc.path, tc.body)
			if got := redirects(); got != before+1 {
				t.Fatalf("%s: served 307 moved the redirect count %d -> %d, want +1", tc.path, before, got)
			}
			rCode, rLoc, rBody := post(routed.URL, tc.path, tc.body)
			if got := redirects(); got != before+1 {
				t.Fatalf("%s: routed 307 moved the cluster's redirect count to %d, want %d", tc.path, got, before+1)
			}
			for _, s := range []struct {
				stack, loc, body string
				code             int
			}{{"served", uLoc, uBody, uCode}, {"routed", rLoc, rBody, rCode}} {
				if s.code != http.StatusTemporaryRedirect || s.loc != want || !strings.Contains(s.body, `"code":"not_leader"`) {
					t.Fatalf("%s %s answered %d Location %q %s, want 307 to %q with not_leader",
						s.stack, tc.path, s.code, s.loc, s.body, want)
				}
			}
			if uBody != rBody {
				t.Fatalf("%s 307 bodies diverge:\nserved: %s\nrouted: %s", tc.path, uBody, rBody)
			}
		}
	}
}
