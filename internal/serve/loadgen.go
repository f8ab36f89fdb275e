package serve

import (
	"errors"
	"math"
	"sync"
	"time"

	"salient/internal/rng"
)

// Load drivers shared by the CLI, the tests and perfbench: the two canonical ways
// to offer traffic to a Server (or any Submitter, e.g. a fleet.Fleet).
// Requests cycle over the given node set.

// Submitter is anything that answers single-node prediction requests — a
// *Server, or the replicated front end in internal/fleet. The load drivers
// accept the seam so one workload generator drives both tiers.
type Submitter interface {
	PredictReq(Request) (Prediction, error)
}

// DriveClosedLoop submits exactly `requests` requests from `clients`
// always-busy goroutines (request i goes to client i%clients), retrying
// saturation rejections — the classic closed-loop client that measures
// service capacity. It returns the wall time of the run. Errors other than
// ErrSaturated (e.g. a concurrently closed server) abort that client.
func DriveClosedLoop(s Submitter, nodes []int32, clients, requests int) time.Duration {
	if clients < 1 {
		clients = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < requests; i += clients {
				v := nodes[i%len(nodes)]
				for {
					_, err := s.PredictReq(Request{Node: v})
					if errors.Is(err, ErrSaturated) {
						continue
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// Arrival selects the inter-dispatch process of the open-loop driver.
type Arrival int

const (
	// ArrivalUniform paces dispatches at exactly 1/rate seconds apart — the
	// deterministic metronome, easiest to reason about but kind to tail
	// latency (no bursts).
	ArrivalUniform Arrival = iota
	// ArrivalPoisson draws exponential gaps with mean 1/rate, the memoryless
	// process real request traffic resembles. Bursts arrive for free, which
	// is exactly what p99 measurements need to be honest.
	ArrivalPoisson
)

// DriveOpenLoopProcess offers `requests` requests at mean rate `rate`
// (fire-and-forget dispatches spaced by the arrival process proc), the
// open-loop client that exposes latency and rejection behaviour under a
// set offered load; seed keys the Poisson gap stream (ignored for
// ArrivalUniform). It returns the wall time from first dispatch until
// every outstanding request completed; rejections land in the server's
// Stats.
func DriveOpenLoopProcess(s Submitter, nodes []int32, rate float64, requests int, proc Arrival, seed uint64) time.Duration {
	r := rng.New(seed)
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for i := 0; i < requests; i++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		switch proc {
		case ArrivalPoisson:
			// Exponential gap: -ln(1-U)/rate, U uniform in [0,1).
			gap := -math.Log(1-r.Float64()) / rate
			next = next.Add(time.Duration(gap * float64(time.Second)))
		default:
			next = next.Add(time.Duration(float64(time.Second) / rate))
		}
		wg.Add(1)
		go func(v int32) {
			defer wg.Done()
			s.PredictReq(Request{Node: v}) //nolint:errcheck // rejections are the measurement
		}(nodes[i%len(nodes)])
	}
	wg.Wait()
	return time.Since(start)
}

// ZipfNodes builds a length-count request sequence over nodes [0, n)
// following a Zipf popularity law: the node of popularity rank k (0-based)
// is drawn with probability proportional to 1/(k+1)^skew. Which node holds
// which rank is a uniform permutation keyed by permSeed, so two sequences
// sharing permSeed target the same hot set (the warm-then-measure contract
// cache experiments need), while drawSeed varies the draws themselves.
// skew <= 0 degenerates to uniform traffic.
func ZipfNodes(n int32, skew float64, permSeed, drawSeed uint64, count int) []int32 {
	out := make([]int32, count)
	draws := rng.New(drawSeed)
	if skew <= 0 {
		for i := range out {
			out[i] = int32(draws.Intn(int(n)))
		}
		return out
	}
	rankToNode := make([]int32, n)
	rng.New(permSeed).Perm(rankToNode)
	cum := make([]float64, n)
	var total float64
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), skew)
		cum[k] = total
	}
	for i := range out {
		u := draws.Float64() * total
		lo, hi := 0, int(n)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = rankToNode[lo]
	}
	return out
}

// DriveChurn streams random directed edge updates over nodes [0, n) into
// apply at ~rate edges/second (in small fixed chunks) until stop closes,
// and returns how many updates apply reported as actually inserted. It is
// the update-side companion of the request drivers above, used by the CLI
// (applying through a fleet's Update or straight to a graph.Dynamic). An
// apply error ends the drive.
func DriveChurn(apply func(src, dst []int32) (int, error), n int32, rate float64, seed uint64, stop <-chan struct{}) int64 {
	if rate <= 0 {
		return 0
	}
	const chunk = 8
	interval := time.Duration(float64(time.Second) * chunk / rate)
	r := rng.New(seed)
	src := make([]int32, chunk)
	dst := make([]int32, chunk)
	var applied int64
	timer := time.NewTimer(0)
	defer timer.Stop()
	next := time.Now()
	for {
		// Pace interruptibly: a stop during the inter-chunk wait returns
		// immediately instead of blocking for up to chunk/rate seconds
		// (material at low rates, where the interval is whole seconds).
		if d := time.Until(next); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return applied
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return applied
			default:
			}
		}
		next = next.Add(interval)
		for i := range src {
			src[i] = int32(r.Intn(int(n)))
			dst[i] = int32(r.Intn(int(n)))
		}
		a, err := apply(src, dst)
		if err != nil {
			return applied
		}
		applied += int64(a)
	}
}
