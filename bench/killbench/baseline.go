package main

import (
	"io"
	"math"
	"net"
	"runtime"
	"time"

	"repro/bench/harness"
)

// baselines are the two measurements that involve no repo code: a loopback
// TCP echo between plain goroutines with serve_ping's message sizes (the
// latency ladder's bottom rung) and a native Go channel ping-pong. They
// run before and after every workload; if the two readings differ by more
// than 10 % the host, not the program, moved, and the result says so.
type baselines struct {
	echoUs   float64
	gochanNs float64
	cpu      harness.HostCPU // taken after the two measurements above
}

// differs reports a host that moved between b and o (the later one): a
// baseline off by more than 10 %, or more than 1 % of the CPU time between
// the two stolen by the hypervisor.
func (b baselines) differs(o baselines) bool {
	off := func(x, y float64) bool { return x > 0 && math.Abs(x-y)/x > 0.10 }
	return off(b.echoUs, o.echoUs) || off(b.gochanNs, o.gochanNs) || o.cpu.StealShareSince(b.cpu) > 0.01
}

func runBaselines() baselines {
	return baselines{echoUs: loopbackEchoUs(), gochanNs: gochanPingPongNs(), cpu: harness.ReadHostCPU()}
}

// batchTarget is how long one batch of a rung runs; the smoke test
// shortens it.
var batchTarget = 40 * time.Millisecond

// batches times fn(n) in five batches of roughly batchTarget each and
// returns the median nanoseconds per iteration.
func batches(fn func(n int)) float64 { return harness.Median(batchTimes(fn)) }

// quietest is batches with the fastest batch instead of the median one:
// what the host can do when nothing disturbs it, which is what the noise
// check compares — a blip during one batch is not a noisy host.
func quietest(fn func(n int)) float64 {
	per := batchTimes(fn)
	best := per[0]
	for _, v := range per {
		if v < best {
			best = v
		}
	}
	return best
}

func batchTimes(fn func(n int)) []float64 {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d > batchTarget/4 || n >= 1<<24 {
			n = int(float64(n) * float64(batchTarget) / float64(d+1))
			if n < 1 {
				n = 1
			}
			break
		}
		n *= 4
	}
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return per
}

// gochanPingPongNs runs on one P: across two, the cost of a channel
// hand-off depends on which threads the scheduler happens to have awake,
// which is noise of exactly the kind this baseline is there to detect.
func gochanPingPongNs() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ping, pong := make(chan int), make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v
		}
	}()
	ns := quietest(func(n int) {
		for i := 0; i < n; i++ {
			ping <- i
			<-pong
		}
	})
	close(ping)
	<-done
	return ns
}

func loopbackEchoUs() float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	reqLen, respLen := len(pingRequest), len(pingResponse)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		in, out := make([]byte, reqLen), make([]byte, respLen)
		for {
			if _, err := io.ReadFull(c, in); err != nil {
				return
			}
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return 0
	}
	out, in := make([]byte, reqLen), make([]byte, respLen)
	ns := quietest(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Write(out); err != nil {
				return
			}
			if _, err := io.ReadFull(c, in); err != nil {
				return
			}
		}
	})
	c.Close()
	ln.Close()
	<-done
	return ns / 1e3
}
