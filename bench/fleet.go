package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"agingcgra"
	"agingcgra/internal/memostore"
	"agingcgra/internal/service"
)

const (
	// fleetDevices is the device count of every fleet query.
	fleetDevices = 1000
	// warmBodies is how many distinct answered queries fleet-warm replays.
	warmBodies = 16
	// opHeader carries the op index to the handler timer.
	opHeader = "X-Bench-Op"
)

// fleetMixes are the single-benchmark mixes fleet queries draw from: the
// suite minus the susan kernels, which cost 5-10x more per combo and would
// make one draw dominate a request's latency.
var fleetMixes = []string{"bitcount", "crc32", "dijkstra", "qsort", "rijndael", "sha", "stringsearch"}

// fleetPairs lists the unordered pairs of fleetMixes.
var fleetPairs = func() (ps [][2]string) {
	for a := range fleetMixes {
		for b := a + 1; b < len(fleetMixes); b++ {
			ps = append(ps, [2]string{fleetMixes[a], fleetMixes[b]})
		}
	}
	return ps
}()

// fleetBody is fleet query i at seed: 2 single-benchmark mixes × {healthy,
// one dead column} × 2 operating points. The mix pair and the column are
// stratified over the queries, so a run's cost mix does not move with the
// seed; the temperatures are continuous draws, so every query's combos are
// new to both service stores (the epoch store keys on the profile) —
// except when the same body is sent again.
func fleetBody(seed uint64, i int) []byte {
	pair := fleetPairs[stratified(seed, streamMix, i, len(fleetPairs))]
	profile := func(j int) service.WeightedProfile {
		return service.WeightedProfile{Phases: []agingcgra.LifetimePhase{
			{UntilYears: 15, TemperatureK: 335 + 30*unit(seed, streamTemp, 2*i+j)},
		}}
	}
	req := service.FleetRequest{
		Devices: fleetDevices,
		Seed:    draw(seed, streamFleetSeed, i)%1000 + 1,
		Base: service.ScenarioRequest{
			Allocator:  "utilization-aware",
			EpochYears: 0.5,
			MaxYears:   15,
		},
		Mixes: []service.WeightedMix{
			{Benchmarks: []string{pair[0]}},
			{Benchmarks: []string{pair[1]}},
		},
		Profiles: []service.WeightedProfile{profile(0), profile(1)},
		Patterns: []service.WeightedPattern{
			{Pattern: "healthy"},
			{Pattern: fmt.Sprintf("column:%d", stratified(seed, streamPattern, i, 16))},
		},
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("encoding fleet query: %v", err)) // plain values only
	}
	return body
}

// handlerTimer is the traced server's middleware: it times each request
// inside the server, from routing to the last handler write.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	byOp map[int]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t)
	if op, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
		h.mu.Lock()
		h.byOp[op] = d
		h.mu.Unlock()
	}
}

// fleetServer is one in-process cgra-lifetimed: the service with its
// default stores and a 2-worker pool behind a loopback HTTP listener.
type fleetServer struct {
	svc   *service.Server
	http  *httptest.Server
	timer *handlerTimer // traced twin only
}

func newFleetServer(timed bool) *fleetServer {
	s := &fleetServer{svc: service.New(service.Options{Workers: 2})}
	var h http.Handler = s.svc.Handler()
	if timed {
		s.timer = &handlerTimer{next: h, byOp: make(map[int]time.Duration)}
		h = s.timer
	}
	s.http = httptest.NewServer(h)
	return s
}

func (s *fleetServer) close() {
	s.http.Close()
	s.svc.Close()
}

// storeStats is the part of /v1/stats the per-layer metrics read.
type storeStats struct {
	Results memostore.Stats `json:"results"`
	Epochs  memostore.Stats `json:"epochs"`
	Refs    memostore.Stats `json:"refs"`
}

// fleetRunner drives fleet queries at an in-process service. The traced
// pass sends every query to an untraced server and to a traced twin with
// identical history, and compares the bytes.
type fleetRunner struct {
	warm   bool
	client *http.Client
	plain  *fleetServer
	timed  *fleetServer // traced pass only

	// bodies and cold are fleet-warm's replay set and the bytes each body
	// got when it was first answered.
	bodies [][]byte
	cold   [][]byte
	// first is fleet-cold's op 0 response, replayed warm by verify once
	// every client has stopped.
	first []byte
	// stats0 is the traced twin's store counters before the timed pass.
	stats0 storeStats
}

func (r *fleetRunner) start(traced bool) (digest, error) {
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	r.plain = newFleetServer(false)
	if traced {
		r.timed = newFleetServer(true)
	}
	// The warm-up query is seed 1's query 2^30, which no timed op sends.
	body := fleetBody(1, 1<<30)
	out, err := r.both(body, -1)
	if err != nil {
		return digest{}, fmt.Errorf("warm-up query: %w", err)
	}
	return sha(out), nil
}

// both posts body to the plain server and, in a traced pass, to the twin,
// requiring identical bytes.
func (r *fleetRunner) both(body []byte, op int) ([]byte, error) {
	out, _, _, err := r.post(r.plain, body, op)
	if err != nil || r.timed == nil {
		return out, err
	}
	twin, _, _, err := r.post(r.timed, body, op)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out, twin) {
		return nil, fmt.Errorf("traced server answered different bytes")
	}
	return out, nil
}

func (r *fleetRunner) prepare(seed uint64) error {
	if r.warm {
		r.bodies = make([][]byte, warmBodies)
		r.cold = make([][]byte, warmBodies)
		for j := range r.bodies {
			r.bodies[j] = fleetBody(seed, j)
			out, err := r.both(r.bodies[j], -1)
			if err != nil {
				return fmt.Errorf("answering replay query %d cold: %w", j, err)
			}
			r.cold[j] = out
		}
	}
	if r.timed != nil {
		st, err := r.stats(r.timed)
		if err != nil {
			return err
		}
		r.stats0 = st
	}
	return nil
}

// post sends one fleet query and checks the answer's shape.
func (r *fleetRunner) post(s *fleetServer, body []byte, op int) ([]byte, int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.http.URL+"/v1/fleet", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set(opHeader, strconv.Itoa(op))
	t := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t)
	if err != nil {
		return nil, 0, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, d, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	var fr service.FleetResponse
	if err := json.Unmarshal(out, &fr); err != nil {
		return nil, 0, d, fmt.Errorf("decoding answer: %w", err)
	}
	if fr.Devices != fleetDevices || fr.Combos < 1 || fr.Combos > 8 ||
		fr.Memo.Hits+fr.Memo.Misses != fleetDevices || len(fr.Deaths) != 1 || len(fr.Throughput) != 3 {
		return nil, 0, d, fmt.Errorf("malformed answer: %d devices, %d combos, memo %+v, %d death curves, %d throughput points",
			fr.Devices, fr.Combos, fr.Memo, len(fr.Deaths), len(fr.Throughput))
	}
	return out, fr.Combos, d, nil
}

func (r *fleetRunner) op(seed uint64, i int, traced bool) opRecord {
	rec := opRecord{I: i}
	s := r.plain
	if traced {
		s = r.timed
	}
	var body, want []byte
	if r.warm {
		j := int(draw(seed, streamReplay, i) % warmBodies)
		body, want = r.bodies[j], r.cold[j]
	} else {
		body = fleetBody(seed, i)
	}
	out, combos, d, err := r.post(s, body, i)
	rec.Dur, rec.Combos = d, combos
	if err != nil {
		rec.Err = err
		return rec
	}
	if want != nil && !bytes.Equal(out, want) {
		rec.Err = fmt.Errorf("warm answer differs from the cold one")
		return rec
	}
	if !r.warm && i == 0 && !traced {
		r.first = out
	}
	rec.Digest = sha(out)
	if traced {
		// The server completes a response only after its handler chain
		// returned, so the timer has booked this op by now.
		s.timer.mu.Lock()
		h, ok := s.timer.byOp[i]
		s.timer.mu.Unlock()
		if !ok {
			rec.Err = fmt.Errorf("handler timer did not see op %d", i)
		}
		rec.Handler = h
	}
	return rec
}

// verify replays fleet-cold's first query, now answered from the result
// store: the warm bytes must equal the cold ones.
func (r *fleetRunner) verify(seed uint64, _ []opRecord) error {
	if r.warm || r.first == nil {
		return nil
	}
	out, _, _, err := r.post(r.plain, fleetBody(seed, 0), -1)
	if err != nil {
		return fmt.Errorf("replaying op 0: %w", err)
	}
	if !bytes.Equal(out, r.first) {
		return fmt.Errorf("op 0 answered warm differs from its cold answer")
	}
	return nil
}

func (r *fleetRunner) stats(s *fleetServer) (storeStats, error) {
	resp, err := r.client.Get(s.http.URL + "/v1/stats")
	if err != nil {
		return storeStats{}, err
	}
	defer resp.Body.Close()
	var st storeStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return storeStats{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

func (r *fleetRunner) layers(recs []opRecord, _ map[string]float64) (map[string]float64, error) {
	st, err := r.stats(r.timed)
	if err != nil {
		return nil, err
	}
	n := float64(len(recs))
	var clientNS, handlerNS, combos float64
	for _, rec := range recs {
		clientNS += float64(rec.TracedDur)
		handlerNS += float64(rec.Handler)
		combos += float64(rec.Combos)
	}
	hitFrac := func(now, before memostore.Stats) float64 {
		hits := float64(now.Hits - before.Hits)
		return frac(hits, hits+float64(now.Misses-before.Misses))
	}
	evictions := st.Results.Evictions + st.Epochs.Evictions + st.Refs.Evictions -
		r.stats0.Results.Evictions - r.stats0.Epochs.Evictions - r.stats0.Refs.Evictions
	return map[string]float64{
		"service.handler_ms":         handlerNS / 1e6 / n,
		"service.transport_ms":       (clientNS - handlerNS) / 1e6 / n,
		"service.combos_per_req":     combos / n,
		"memostore.results_hit_frac": hitFrac(st.Results, r.stats0.Results),
		"memostore.epochs_hit_frac":  hitFrac(st.Epochs, r.stats0.Epochs),
		"memostore.refs_hit_frac":    hitFrac(st.Refs, r.stats0.Refs),
		"memostore.evictions_per_op": float64(evictions) / n,
		"bench.explained_frac":       frac(handlerNS, clientNS),
	}, nil
}

func (r *fleetRunner) close() {
	if r.plain != nil {
		r.plain.close()
	}
	if r.timed != nil {
		r.timed.close()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
}
