package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/pwg"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wfio"
)

// Class is a scripted request's role in the serve-mix traffic.
type Class int

// Request classes of the serve-mix script.
const (
	ClassMiss      Class = iota // a new body: a search
	ClassHit                    // an earlier body, re-sent once it has been answered
	ClassCollapsed              // one fresh body sent by two clients at once
	ClassMC                     // a new body with mcTrials set
	ClassRefine                 // a new small body with refine=true
	ClassInvalid                // a malformed request: expects 4xx
)

func (c Class) String() string {
	return [...]string{"miss", "hit", "collapsed", "mc", "refine", "invalid"}[c]
}

// Body is one distinct request body of the script. The script holds
// only its description; the workflow is generated and encoded on first
// use (Encode) and dropped at once, and the encoded bytes and first
// answer are dropped too once no scripted item can send the body
// again. The benchmark's own memory so stays bounded by the window of
// recent bodies, whatever the run's length or the server's speed.
type Body struct {
	ID       int
	Family   pwg.Workflow
	N        int    // tasks of the workflow (0 for invalid bodies)
	InstSeed uint64 // NewInstance seed of the workflow
	JSON     bool
	Req      serve.Request // the options the body carries
	invalid  bool          // a malformed request (invalidBody)

	once              sync.Once
	Path, ContentType string // set by Encode
	Data              []byte // set by Encode; nil once released
	encErr            error

	mu        sync.Mutex
	first     []byte        // the first answer; nil once released
	caches    []string      // X-Wfserve-Cache of the answered fresh sends
	fresh     int           // fresh sends not yet answered
	refs      int           // unanswered items, plus one while hits may pick the body
	firstDone chan struct{} // closed once every fresh send has been answered
}

// Instance regenerates the body's workflow.
func (b *Body) Instance() (Instance, error) {
	return NewInstance(b.Family, b.N, b.InstSeed, 0)
}

// Encode renders the body in its binding, once.
func (b *Body) Encode() error {
	b.once.Do(func() {
		if b.invalid {
			return // invalidBody set the bytes
		}
		inst, err := b.Instance()
		if err != nil {
			b.encErr = err
			return
		}
		b.Path, b.ContentType, b.Data, b.encErr = encodeRequest(inst, b.Req, b.JSON)
	})
	return b.encErr
}

// Item is one step of the script: a class and the body it sends.
type Item struct {
	Class Class
	Body  *Body
	pair  *sync.WaitGroup // collapsed pairs: both members start together
}

// recentBodies is how many of the latest fresh bodies a hit picks
// from; they stay well inside the server's LRU.
const recentBodies = 32

// Script is serve-mix's request sequence: an endless stream generated
// block by block from the seed, so item i is the same on every run
// with that seed, however many items the run reaches. It is driven
// once: Drive consumes its pair barriers and answer signals. Only the
// driving goroutines' shared lock may call item.
type Script struct {
	Items  []Item  // generated so far
	Bodies []*Body // every body generated so far, by ID
	keep   bool    // never release bodies (traced runs re-read them)

	cfg                                        Config
	r                                          *rng.Source
	shapes, mcShapes, refineShapes, pairShapes *shapeCycle
	recent                                     []*Body
	block, invalidKind                         int

	mu     sync.Mutex
	hashes map[string]bool // canonical hashes answered with 200
}

// NewScript starts the seeded request stream. With keep set, bodies
// keep their bytes and first answers for the whole run.
func NewScript(cfg Config, keep bool) *Script {
	r := rng.New(rng.StreamSeed(cfg.Seed, 1<<32))
	return &Script{
		keep:         keep,
		cfg:          cfg,
		r:            r,
		shapes:       newShapeCycle(r.Fork(), cfg.ServeMinN, cfg.ServeMaxN, 8),
		mcShapes:     newShapeCycle(r.Fork(), cfg.ServeMinN, (cfg.ServeMinN+cfg.ServeMaxN)/2, 4),
		refineShapes: newShapeCycle(r.Fork(), cfg.ServeRefineN-4, cfg.ServeRefineN+4, 3),
		pairShapes:   newShapeCycle(r.Fork(), cfg.ServeCollapseN, cfg.ServeMaxN, 4),
		hashes:       map[string]bool{},
	}
}

// Prefix generates the first n items and encodes their bodies.
func (sc *Script) Prefix(n int) error {
	for i := 0; i < n; i++ {
		if err := sc.item(i).Body.Encode(); err != nil {
			return err
		}
	}
	return nil
}

// item returns item i, generating blocks until it exists.
func (sc *Script) item(i int) Item {
	for len(sc.Items) <= i {
		sc.nextBlock()
	}
	return sc.Items[i]
}

// shape is a fresh body's workflow family and size.
type shape struct {
	fam pwg.Workflow
	n   int
}

// shapeCycle deals every pairing of the four families with k sizes
// evenly spaced over [lo, hi], in a fresh seeded permutation per
// cycle. Every stretch of the script so holds nearly the same mix of
// families and sizes, and a seed changes only the order and the
// instances; with families and sizes drawn independently, the miss
// median moved by up to a sixth between seeds.
type shapeCycle struct {
	r    *rng.Source
	vals []shape
	next []shape
}

func newShapeCycle(r *rng.Source, lo, hi, k int) *shapeCycle {
	c := &shapeCycle{r: r}
	for i := 0; i < k; i++ {
		n := lo
		if k > 1 {
			n = lo + int(math.Round(float64(i)*float64(hi-lo)/float64(k-1)))
		}
		for _, f := range families {
			c.vals = append(c.vals, shape{f, n})
		}
	}
	return c
}

func (c *shapeCycle) draw() shape {
	if len(c.next) == 0 {
		for _, p := range c.r.Perm(len(c.vals)) {
			c.next = append(c.next, c.vals[p])
		}
	}
	v := c.next[0]
	c.next = c.next[1:]
	return v
}

// nextBlock appends one block of items. A block holds four misses,
// four hits, one mc, one refine, one collapsed pair (with two or more
// clients) and, every other block, one invalid request, in seeded
// order. README.md gives the reasoning behind these shares. Hits
// re-send one of the last recentBodies fresh bodies.
func (sc *Script) nextBlock() {
	cfg, r := sc.cfg, sc.r
	units := []Class{ClassMiss, ClassMiss, ClassMiss, ClassMiss, ClassHit, ClassHit, ClassHit, ClassHit, ClassMC, ClassRefine}
	if cfg.Workers >= 2 {
		units = append(units, ClassCollapsed)
	}
	if sc.block%2 == 1 {
		units = append(units, ClassInvalid)
	}
	r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	if sc.block == 0 { // the first item is a miss, so a hit has a body to re-send
		for i, u := range units {
			if u == ClassMiss {
				units[0], units[i] = units[i], units[0]
				break
			}
		}
	}
	sc.block++
	for _, u := range units {
		var b *Body
		switch u {
		case ClassMiss:
			b = sc.newBody(sc.shapes.draw(), 0, false)
		case ClassMC:
			b = sc.newBody(sc.mcShapes.draw(), cfg.ServeMC, false)
		case ClassRefine:
			b = sc.newBody(sc.refineShapes.draw(), 0, true)
		case ClassCollapsed:
			b = sc.newBody(sc.pairShapes.draw(), 0, false)
		case ClassHit:
			b = sc.recent[r.Intn(len(sc.recent))]
		case ClassInvalid:
			b = invalidBody(len(sc.Bodies), sc.invalidKind)
			sc.invalidKind++
			sc.Bodies = append(sc.Bodies, b)
		}
		members := 1
		var wg *sync.WaitGroup
		if u == ClassCollapsed {
			members, wg = 2, &sync.WaitGroup{}
			wg.Add(2)
		}
		b.mu.Lock()
		b.refs += members
		if u != ClassHit && u != ClassInvalid {
			b.fresh += members
		}
		b.mu.Unlock()
		for k := 0; k < members; k++ {
			sc.Items = append(sc.Items, Item{Class: u, Body: b, pair: wg})
		}
	}
}

// newBody describes a fresh body and adds it to the recent window,
// releasing the body that leaves it.
func (sc *Script) newBody(sh shape, mcTrials int, refine bool) *Body {
	r := sc.r
	id := len(sc.Bodies)
	b := &Body{
		ID: id, Family: sh.fam, N: sh.n, InstSeed: rng.StreamSeed(sc.cfg.Seed, uint64(1<<33+id)),
		Req:       serve.Request{Lambda: sh.fam.DefaultLambda(), Grid: sc.cfg.ServeGrid, Seed: uint64(r.Intn(1000)), MCTrials: mcTrials, Refine: refine},
		JSON:      r.Intn(2) == 0,
		refs:      1,
		firstDone: make(chan struct{}),
	}
	sc.Bodies = append(sc.Bodies, b)
	sc.recent = append(sc.recent, b)
	if len(sc.recent) > recentBodies {
		old := sc.recent[0]
		sc.recent = sc.recent[1:]
		old.mu.Lock()
		sc.releaseLocked(old)
		old.mu.Unlock()
	}
	return b
}

// releaseLocked drops one reference to b (b.mu held) and, at the last
// one, its bytes and first answer.
func (sc *Script) releaseLocked(b *Body) {
	b.refs--
	if b.refs == 0 && !sc.keep {
		b.Data, b.first = nil, nil
	}
}

// encodeRequest renders a request in the JSON or the text binding.
func encodeRequest(inst Instance, req serve.Request, asJSON bool) (path, contentType string, data []byte, err error) {
	if asJSON {
		req.Workflow = *wfio.ToJSON(inst.G, nil, nil)
		data, err = json.Marshal(req)
		return "/v1/schedule", "application/json", data, err
	}
	var buf bytes.Buffer
	if err := wfio.Write(&buf, inst.G, nil, nil); err != nil {
		return "", "", nil, err
	}
	q := url.Values{}
	q.Set("lambda", strconv.FormatFloat(req.Lambda, 'g', -1, 64))
	q.Set("seed", strconv.FormatUint(req.Seed, 10))
	if req.MCTrials > 0 {
		q.Set("mc", strconv.Itoa(req.MCTrials))
	}
	if req.Refine {
		q.Set("refine", "true")
	}
	if req.Grid > 0 {
		q.Set("grid", strconv.Itoa(req.Grid))
	}
	return "/v1/schedule?" + q.Encode(), "text/plain", buf.Bytes(), nil
}

// invalidBody is one of five malformed requests the service must
// answer with a 4xx.
func invalidBody(id, kind int) *Body {
	b := &Body{ID: id, invalid: true, Path: "/v1/schedule", ContentType: "application/json", firstDone: make(chan struct{})}
	switch kind % 5 {
	case 0: // unknown query parameter
		b.Path, b.ContentType, b.Data = "/v1/schedule?lambda=0.001&bogus=1", "text/plain", []byte("task a 1 0.1 0.1\n")
	case 1: // cycle
		b.Data = []byte(`{"workflow":{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]},"lambda":0.001}`)
	case 2: // negative weight
		b.Data = []byte(`{"workflow":{"tasks":[{"name":"a","weight":-1}]},"lambda":0.001}`)
	case 3: // the client may not dictate the schedule
		b.Path, b.ContentType, b.Data = "/v1/schedule?lambda=0.001", "text/plain", []byte("task a 1 0.1 0.1\ntask b 2 0.2 0.2\nedge a b\norder a b\n")
	case 4: // unknown JSON field
		b.Data = []byte(`{"workflow":{"tasks":[{"name":"a","weight":1}]},"lambda":0.001,"bogus":true}`)
	}
	return b
}

// Outcome is one completed script item. Answers are checked as they
// arrive and not kept.
type Outcome struct {
	Index   int
	Item    Item
	Latency time.Duration
	Ratio   float64 // best.ratio of a miss, mc or refine answer; 0 otherwise
}

// Service is a wfserve instance on a loopback listener.
type Service struct {
	URL    string
	srv    *http.Server
	done   chan error
	Client *http.Client
}

// StartService starts serve.New(Config{Workers: workers}) on
// 127.0.0.1:0 and waits until /healthz answers.
func StartService(workers int) (*Service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Service{
		URL:    "http://" + ln.Addr().String(),
		srv:    &http.Server{Handler: serve.New(serve.Config{Workers: workers}).Handler()},
		done:   make(chan error, 1),
		Client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers + 1, DisableCompression: true}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	resp, err := s.Client.Get(s.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
}

// Stop shuts the server down and waits for it to exit.
func (s *Service) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
	s.Client.CloseIdleConnections()
}

// Send posts one body and reads the whole answer.
func (s *Service) Send(b *Body) (status int, cache string, data []byte, err error) {
	resp, err := s.Client.Post(s.URL+b.Path, b.ContentType, bytes.NewReader(b.Data))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Wfserve-Cache"), data, err
}

// Stats reads GET /stats.
func (s *Service) Stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := s.Client.Get(s.URL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Drive runs a closed loop of `clients` goroutines over the script's
// first n items, until stop: each takes the next item, encodes its
// body if need be, sends it, checks the answer as one operation of chk
// and takes the next. Hits wait until their body's fresh sends have
// been answered; collapsed pairs start together. No new item starts
// after stop, except the second member of a pair whose first member
// has started. Latency runs from the send to the last byte read.
func Drive(s *Service, sc *Script, n int, clients int, stop time.Time, tr *Tracer, chk *Checker) []Outcome {
	var (
		mu   sync.Mutex
		next int
		outs []Outcome
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				it := sc.item(next)
				if (next >= n || (next > 0 && time.Now().After(stop))) && !sc.secondOfPair(next) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				b := it.Body
				encErr := b.Encode()
				if it.Class == ClassHit {
					<-b.firstDone
				}
				if it.pair != nil {
					it.pair.Done()
					it.pair.Wait()
				}
				var (
					status int
					cache  string
					data   []byte
					err    = encErr
				)
				start := time.Now()
				if err == nil {
					id := tr.Begin("serve.request."+it.Class.String(), i, -1)
					status, cache, data, err = s.Send(b)
					tr.End(id)
				}
				o := Outcome{Index: i, Item: it, Latency: time.Since(start)}
				chk.Op(fmt.Sprintf("request %d (%v)", i, it.Class), sc.record(&o, status, cache, data, err))
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// secondOfPair reports whether item i is the second member of a
// collapsed pair; the item must have been generated.
func (sc *Script) secondOfPair(i int) bool {
	return sc.Items[i].pair != nil && i > 0 && sc.Items[i-1].pair == sc.Items[i].pair
}

// record checks one answer, then does the body's bookkeeping: it
// signals waiting hits once the fresh sends are answered and drops a
// reference. sendErr is the error of the encode or the send.
func (sc *Script) record(o *Outcome, status int, cache string, data []byte, sendErr error) error {
	b := o.Item.Body
	b.mu.Lock()
	defer b.mu.Unlock()
	err := sendErr
	if err == nil {
		o.Ratio, err = sc.checkLocked(o.Item, status, cache, data)
	}
	if o.Item.Class != ClassHit && o.Item.Class != ClassInvalid {
		if b.fresh--; b.fresh == 0 {
			close(b.firstDone)
		}
	}
	sc.releaseLocked(b)
	return err
}

// Check verifies one answer to item it against the body's earlier
// answers, without bookkeeping.
func (sc *Script) Check(it Item, status int, cache string, data []byte) error {
	it.Body.mu.Lock()
	defer it.Body.mu.Unlock()
	_, err := sc.checkLocked(it, status, cache, data)
	return err
}

// checkLocked verifies one answer (the body's mu held): the status, a
// decodable all-finite response, the cache header the class implies,
// bytes identical to the body's first answer and, for mc, a mean
// within mcSigmas standard errors. It records the first answer and the
// response's hash, and returns best.ratio for fresh classes.
func (sc *Script) checkLocked(it Item, status int, cache string, data []byte) (float64, error) {
	b := it.Body
	if it.Class == ClassInvalid {
		if status < 400 || status > 499 {
			return 0, fmt.Errorf("invalid request answered %d, want 4xx: %s", status, data)
		}
		return 0, nil
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, data)
	}
	resp, err := serve.ReadResponse(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	var errs []error
	if err := finiteResponse(resp); err != nil {
		errs = append(errs, err)
	}
	switch it.Class {
	case ClassMiss, ClassMC, ClassRefine:
		if cache != "miss" {
			errs = append(errs, fmt.Errorf("X-Wfserve-Cache %q, want miss", cache))
		}
	case ClassHit:
		if cache != "hit" {
			errs = append(errs, fmt.Errorf("X-Wfserve-Cache %q, want hit", cache))
		}
	case ClassCollapsed:
		b.caches = append(b.caches, cache)
		errs = append(errs, checkPair(b.caches))
	}
	switch {
	case b.first == nil && it.Class != ClassHit:
		b.first = data
	case !bytes.Equal(b.first, data):
		errs = append(errs, errors.New("body differs from the first answer for the same request"))
	}
	if it.Class == ClassMC {
		errs = append(errs, checkMC(resp))
	}
	sc.mu.Lock()
	sc.hashes[resp.Hash] = true
	sc.mu.Unlock()
	ratio := 0.0
	if it.Class != ClassHit && it.Class != ClassCollapsed {
		ratio = resp.Best.Ratio
	}
	return ratio, errors.Join(errs...)
}

// checkPair checks the cache headers of a collapsed pair answered so
// far. One member runs the search ("miss"); the other joins it
// ("collapsed") or, if it arrives after the answer was published,
// reads it from the store ("hit"). Both are correct server behaviour.
func checkPair(caches []string) error {
	misses := 0
	for _, c := range caches {
		switch c {
		case "miss":
			misses++
		case "collapsed", "hit":
		default:
			return fmt.Errorf("collapsed pair answered X-Wfserve-Cache %q", c)
		}
	}
	if misses > 1 || (len(caches) == 2 && misses != 1) {
		return fmt.Errorf("collapsed pair answered %v, want one miss and one collapsed or hit", caches)
	}
	return nil
}

// mcSigmas is how many standard errors an mc mean may lie from the
// analytic expectation.
const mcSigmas = 6

// checkMC requires the Monte-Carlo mean to agree with the analytic
// best.expected within mcSigmas standard errors.
func checkMC(resp *serve.Response) error {
	if resp.MC == nil {
		return errors.New("no mc section")
	}
	se := resp.MC.CI99 / stats.ZQuantile(0.995)
	if d := math.Abs(resp.MC.Mean - resp.Best.Expected); !(d <= mcSigmas*se) {
		return fmt.Errorf("mc mean %v is %.1f standard errors from expected %v", resp.MC.Mean, d/se, resp.Best.Expected)
	}
	return nil
}

// finiteResponse requires every number of a response to be finite.
func finiteResponse(r *serve.Response) error {
	vals := []float64{r.TInf, r.Best.Expected, r.Best.Ratio}
	for _, h := range r.Results {
		vals = append(vals, h.Expected, h.Ratio)
	}
	if m := r.MC; m != nil {
		vals = append(vals, m.Mean, m.CI99, m.P5, m.P50, m.P95, m.P99, m.Max, m.AvgFailures)
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite number %v in response", v)
		}
	}
	if len(r.Results) == 0 || r.Tasks == 0 {
		return errors.New("empty response")
	}
	return nil
}

// checkStats requires /stats to count exactly one search per distinct
// hash served.
func checkStats(s *Service, sc *Script, chk *Checker) serve.Stats {
	st, err := s.Stats()
	sc.mu.Lock()
	want := len(sc.hashes)
	sc.mu.Unlock()
	if err == nil && st.Searches != int64(want) {
		err = fmt.Errorf("/stats searches = %d, want %d distinct hashes", st.Searches, want)
	}
	chk.Op("/stats", err)
	return st
}

// serveSetup starts the script, encodes the bodies of its first
// ratioItems items and starts the service, SetupReps times; it keeps
// the last script and service and returns the median set-up time.
func serveSetup(cfg Config) (*Script, *Service, float64, error) {
	var (
		sc    *Script
		svc   *Service
		times []float64
	)
	for rep := 0; rep < max(1, cfg.SetupReps); rep++ {
		if svc != nil {
			svc.Stop()
		}
		start := time.Now()
		sc = NewScript(cfg, false)
		if err := sc.Prefix(ratioItems); err != nil {
			return nil, nil, 0, err
		}
		var err error
		if svc, err = StartService(cfg.Workers); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, sec(time.Since(start)))
	}
	return sc, svc, median(times), nil
}

// runServeMix drives wfserve with a closed loop of Workers clients for
// the run's time.
func runServeMix(cfg Config, chk *Checker, tr *Tracer) (map[string]float64, error) {
	if tr != nil {
		return traceServeMix(cfg, chk, tr)
	}
	sc, svc, setup, err := serveSetup(cfg)
	if err != nil {
		return nil, err
	}
	defer svc.Stop()
	start := time.Now()
	outs := Drive(svc, sc, math.MaxInt, cfg.Workers, start.Add(cfg.Duration), nil, chk)
	wall := time.Since(start)
	checkStats(svc, sc, chk)

	logClasses(outs)
	var miss, ratios []float64
	for _, o := range outs {
		switch o.Item.Class {
		case ClassMiss, ClassMC, ClassRefine:
			miss = append(miss, ms(o.Latency))
			if o.Index < ratioItems && o.Ratio > 0 {
				ratios = append(ratios, o.Ratio)
			}
		}
	}
	return map[string]float64{
		"setup_s":        setup,
		"op_p50_ms":      median(miss),
		"op_p90_ms":      quantile(miss, 0.9),
		"ops_per_s":      float64(len(outs)) / wall.Seconds(),
		"makespan_ratio": geomean(ratios),
	}, nil
}

// ratioItems is the script prefix behind serve-mix's makespan_ratio,
// so it is a function of the seed alone; set-up encodes its bodies.
const ratioItems = 48

// logClasses prints each class's count and latency quartiles to
// standard error.
func logClasses(outs []Outcome) {
	byClass := map[Class][]float64{}
	for _, o := range outs {
		byClass[o.Item.Class] = append(byClass[o.Item.Class], ms(o.Latency))
	}
	for c := ClassMiss; c <= ClassInvalid; c++ {
		if xs := byClass[c]; len(xs) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %-9v n=%-4d p25=%.1fms p50=%.1fms p90=%.1fms max=%.1fms\n",
				c, len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.9), quantile(xs, 1))
		}
	}
}
