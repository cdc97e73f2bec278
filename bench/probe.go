package main

import (
	"compress/flate"
	"io"
	"sync"
	"time"
)

// This file measures how fast the machine is right now. The benchmark
// runs on a few cores of a shared host whose speed moves by a third from
// one second to the next (README, "What repeats"); a timing is worth
// comparing with another only after both are scaled to the same speed.

// probeRefMS is what the probe takes on the calibration machine when the
// host is quiet: pace 1.
const probeRefMS = 19.0

// speedProbe times a fixed piece of work on every client core at once.
// The work is the standard library's, never the program's, so no change to
// the program moves it, and it is of the program's kind: a deflate of
// structured bytes (tiles are PNGs) and multiply-adds streamed over a few
// MiB (a search scans the compendium).
type speedProbe struct {
	raw   []byte
	cores []probeCore
}

// probeCore is what one core works on, allocated once so that the probe
// itself never makes the collector run.
type probeCore struct {
	vec []float64
	zw  *flate.Writer
}

func newSpeedProbe(cores int) *speedProbe {
	p := &speedProbe{raw: make([]byte, 384<<10)}
	h := uint32(2463534242)
	for i := range p.raw {
		h ^= h << 13
		h ^= h >> 17
		h ^= h << 5
		p.raw[i] = byte(i/64) ^ byte(h&7)
	}
	for c := 0; c < cores; c++ {
		v := make([]float64, 1<<18)
		for i := range v {
			v[i] = float64(i%1021) * 1e-3
		}
		zw, _ := flate.NewWriter(io.Discard, flate.DefaultCompression) // the level is valid
		p.cores = append(p.cores, probeCore{vec: v, zw: zw})
	}
	return p
}

// pace is the time the probe takes now over the time it takes on the
// quiet calibration machine: 1.3 means everything takes 1.3 times as long.
// It is the median of three back-to-back timings, each the mean of what
// the cores took: a core that a neighbour on the host slows down costs the
// daemon its share of the throughput, not the whole of it.
func (p *speedProbe) pace() float64 {
	var reps []float64
	for rep := 0; rep < 3; rep++ {
		took := make([]float64, len(p.cores))
		var wg sync.WaitGroup
		for c := range p.cores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				p.work(&p.cores[c])
				took[c] = ms(time.Since(start))
			}()
		}
		wg.Wait()
		reps = append(reps, mean(took))
	}
	return median(reps) / probeRefMS
}

var probeSink float64

func (p *speedProbe) work(c *probeCore) {
	c.zw.Reset(io.Discard)
	c.zw.Write(p.raw)
	c.zw.Close()
	v := c.vec
	var a0, a1, a2, a3 float64
	for pass := 0; pass < 60; pass++ {
		for i := 0; i+3 < len(v); i += 4 {
			a0 += v[i] * 1.0001
			a1 += v[i+1] * 0.9999
			a2 += v[i+2] * 1.0002
			a3 += v[i+3] * 0.9998
		}
	}
	probeSink = a0 + a1 + a2 + a3
}
