package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxFailures bounds how many failure descriptions a run keeps.
const maxFailures = 10

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

func post(ctx context.Context, h *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(h, req)
}

func get(ctx context.Context, h *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(h, req)
}

func do(h *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := h.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// completion is one successful call.
type completion struct {
	us     float64 // round trip, microseconds
	ops    int
	series series
}

// tally is what one drive phase observed.
type tally struct {
	attempted int64 // ops sent
	failed    int64 // ops whose call failed: transport, status or check
	ops       int64 // ops that succeeded
	work      uint64
	done      []completion
	failures  []string
}

// latencies returns the round trips of s's calls, in microseconds.
func latencies(done []completion, s series) []float64 {
	var out []float64
	for _, c := range done {
		if c.series == s {
			out = append(out, c.us)
		}
	}
	return out
}

func (t *tally) fail(c call, err error) {
	t.failed += int64(c.ops)
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", c.path, err))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops += o.ops
	t.work += o.work
	t.done = append(t.done, o.done...)
	for _, f := range o.failures {
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, f)
		}
	}
}

// drive runs every worker closed-loop on its own connection until d has
// elapsed, then waits for the calls in flight. It returns the merged
// tally and the wall time until the last worker finished.
func drive(ctx context.Context, h *http.Client, base string, workers []worker, d time.Duration) (tally, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]tally, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &parts[i]
			for ctx.Err() == nil && time.Now().Before(deadline) {
				c := w.next()
				t.attempted += int64(c.ops)
				t0 := time.Now()
				status, body, err := post(ctx, h, base+c.path, c.body)
				t1 := time.Now()
				if err == nil {
					err = c.check(status, body)
				}
				if err != nil {
					t.fail(c, err)
					continue
				}
				t.ops += int64(c.ops)
				t.work += c.work
				t.done = append(t.done, completion{us: float64(t1.Sub(t0).Nanoseconds()) / 1e3, ops: c.ops, series: c.series})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out tally
	for i := range parts {
		out.merge(&parts[i])
	}
	return out, elapsed
}

// refHostSpeed is the host speed the end-to-end metrics are reported at:
// SHA-256 hashing 1 GiB/s on each CPU.
const refHostSpeed = 1 << 30

// probeDuration is how long one host-speed reading lasts.
const probeDuration = 50 * time.Millisecond

// hostSpeed measures how fast the host runs a fixed computation right now:
// SHA-256 over 4 KiB blocks on every CPU for probeDuration, in bytes per
// second per CPU. It runs no hrtsched code, so it moves with the host
// (other tenants of a shared machine slow every process on it) and not
// with the code under test.
func hostSpeed() float64 {
	cpus := runtime.GOMAXPROCS(0)
	var blocks atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [4096]byte
			n := int64(0)
			for time.Since(start) < probeDuration {
				// Each digest feeds the next block, so no call can be skipped.
				d := sha256.Sum256(buf[:])
				copy(buf[:], d[:])
				n++
			}
			blocks.Add(n)
		}()
	}
	wg.Wait()
	return float64(blocks.Load()*4096) / time.Since(start).Seconds() / float64(cpus)
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, with utime and stime as fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns pid's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns the CPU time this process (the load generator) has used,
// at microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
