package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is splittable: independent components of a simulation each
// take a Split() stream from a single root seed, so the whole run is
// reproducible bit-for-bit regardless of the order in which components
// consume randomness.
type Rand struct {
	state uint64
	spare float64
	has   bool
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed resets r in place to the stream NewRand(seed) would return.
func (r *Rand) Seed(seed uint64) {
	*r = Rand{state: seed}
}

// Split derives an independent generator from this one, consuming one draw.
func (r *Rand) Split() *Rand {
	d := new(Rand)
	r.SplitInto(d)
	return d
}

// SplitInto is Split for a stream the caller already stores: it reseeds
// dst in place with the stream Split would return, consuming the same one
// draw.
func (r *Rand) SplitInto(dst *Rand) {
	dst.Seed(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(n)
	limit := (-max) % max // = (2^64) mod n, computed in uint64 arithmetic
	for {
		v := r.Uint64()
		if v >= limit {
			return int64(v % max)
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Range returns a uniform value in [lo, hi]. It panics if hi < lo.
func (r *Rand) Range(lo, hi int64) int64 {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	return lo + r.Int63n(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal deviate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	if r.has {
		r.has = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.has = true
	return mag * math.Cos(2*math.Pi*v)
}

// TruncNormFloat64 returns a normal deviate with the given mean and sigma,
// truncated to [lo, hi] by rejection sampling. After maxNormRejects
// rejections the draw is clamped instead, bounding the worst case while
// staying deterministic for a given stream. Panics if hi < lo.
func (r *Rand) TruncNormFloat64(mean, sigma, lo, hi float64) float64 {
	if hi < lo {
		panic("sim: TruncNormFloat64 with hi < lo")
	}
	if sigma <= 0 || lo == hi {
		return math.Min(math.Max(mean, lo), hi)
	}
	const maxNormRejects = 64
	for i := 0; i < maxNormRejects; i++ {
		x := mean + sigma*r.NormFloat64()
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(math.Max(mean+sigma*r.NormFloat64(), lo), hi)
}

// ExpFloat64 returns an exponentially distributed deviate with mean 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
