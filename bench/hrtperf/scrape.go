package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one reading of a daemon's /metrics page with every family's
// series summed: counters per family, histogram buckets per upper edge.
type scrape struct {
	sums    map[string]float64
	buckets map[string]map[float64]float64 // family -> le -> cumulative count
}

func readMetrics(ctx context.Context, h *http.Client, base string) (scrape, error) {
	status, b, err := get(ctx, h, base+"/metrics")
	if err != nil {
		return scrape{}, fmt.Errorf("scrape: %w", err)
	}
	if status != http.StatusOK {
		return scrape{}, fmt.Errorf("scrape: status %d", status)
	}
	return parseMetrics(b)
}

// parseMetrics reads the Prometheus text exposition format.
func parseMetrics(b []byte) (scrape, error) {
	s := scrape{sums: map[string]float64{}, buckets: map[string]map[float64]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("scrape: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return s, fmt.Errorf("scrape: %q: %w", line, err)
		}
		series := line[:sp]
		name, labels, _ := strings.Cut(series, "{")
		if base, ok := strings.CutSuffix(name, "_bucket"); ok {
			le, err := labelFloat(labels, "le")
			if err != nil {
				return s, fmt.Errorf("scrape: %q: %w", line, err)
			}
			if s.buckets[base] == nil {
				s.buckets[base] = map[float64]float64{}
			}
			s.buckets[base][le] += v
			continue
		}
		s.sums[name] += v
	}
	return s, sc.Err()
}

func labelFloat(labels, key string) (float64, error) {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return 0, fmt.Errorf("no %s label", key)
	}
	v := labels[i+len(key)+2:]
	v = v[:strings.IndexByte(v, '"')]
	if v == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(v, 64)
}

// since returns the change from an earlier scrape: counter deltas and
// per-bucket histogram deltas over the interval between the two.
func (s scrape) since(earlier scrape) scrape {
	d := scrape{sums: map[string]float64{}, buckets: map[string]map[float64]float64{}}
	for k, v := range s.sums {
		d.sums[k] = v - earlier.sums[k]
	}
	for k, bs := range s.buckets {
		d.buckets[k] = map[float64]float64{}
		for le, v := range bs {
			d.buckets[k][le] = v - earlier.buckets[k][le]
		}
	}
	return d
}

// ratio returns sums[num]/sums[den], 0 when den did not move.
func (s scrape) ratio(num, den string) float64 {
	if s.sums[den] == 0 {
		return 0
	}
	return s.sums[num] / s.sums[den]
}

type bucket struct {
	lo, hi float64
	n      float64
}

// hist returns family's buckets in ascending order with per-bucket counts.
// The first bucket's lower edge is taken as 0.
func (s scrape) hist(family string) []bucket {
	les := make([]float64, 0, len(s.buckets[family]))
	for le := range s.buckets[family] {
		les = append(les, le)
	}
	sort.Float64s(les)
	out := make([]bucket, len(les))
	lo, prev := 0.0, 0.0
	for i, le := range les {
		cum := s.buckets[family][le]
		out[i] = bucket{lo: lo, hi: le, n: cum - prev}
		lo, prev = le, cum
	}
	return out
}

// histQuantile estimates the q-quantile of family by linear interpolation
// inside the bucket that holds it; the overflow bucket reads as its lower
// edge. It returns 0 when the histogram saw nothing.
func (s scrape) histQuantile(family string, q float64) float64 {
	bs := s.hist(family)
	total := 0.0
	for _, b := range bs {
		total += b.n
	}
	if total == 0 {
		return 0
	}
	target, cum := q*total, 0.0
	for _, b := range bs {
		if b.n > 0 && cum+b.n >= target {
			if math.IsInf(b.hi, 1) {
				return b.lo
			}
			return b.lo + (target-cum)/b.n*(b.hi-b.lo)
		}
		cum += b.n
	}
	return bs[len(bs)-1].lo
}

// histMeanLower is the mean of an integer-valued histogram whose bucket i
// holds exactly the value of its lower edge, such as the router's fan-out
// width histogram.
func (s scrape) histMeanLower(family string) float64 {
	var sum, n float64
	for _, b := range s.hist(family) {
		sum += b.lo * b.n
		n += b.n
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
