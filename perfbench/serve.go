package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/ldbc"
)

// graphName is the one tenant every workload serves.
const graphName = "g"

// stack is the serving stack under test: a fast.Server over a fast.Router on
// a loopback listener, with the benchmark's standing subscription.
type stack struct {
	router *fast.Router
	server *fast.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string
	sub    *fast.Subscription
	notes  *subscriber
}

// newStack builds the stack over g, plans every query of the mix cold and
// registers the subscription: the work setup_s measures.
func newStack(w *workload, g *graph.Graph, qs []*graph.Query) (*stack, error) {
	router := fast.NewRouter(fast.RouterOptions{Workers: routerWorkers})
	if err := router.AddGraph(graphName, g, w.engineOptions()); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &stack{
		router: router,
		server: fast.NewServer(router, fast.ServerOptions{}),
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String() + "/v1/graphs/" + graphName,
		notes:  newSubscriber(),
	}
	s.hs = &http.Server{Handler: s.server}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	ctx := context.Background()
	for _, q := range qs {
		// One embedding is enough to plan and cache: the limit keeps the
		// match itself out of the set-up time.
		if _, err := router.MatchContext(ctx, graphName, q, fast.WithLimit(1)); err != nil {
			s.close()
			return nil, fmt.Errorf("planning %s: %w", q.Name(), err)
		}
	}
	sq, err := ldbc.QueryByName(subscriptionQuery)
	if err == nil {
		s.sub, err = router.Subscribe(ctx, graphName, sq, s.notes.emit)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("subscribing %s: %w", subscriptionQuery, err)
	}
	return s, nil
}

// close stops the subscription and the HTTP server and waits for both.
func (s *stack) close() {
	if s.sub != nil {
		s.sub.Close()
		_ = s.sub.Wait() // ErrSubscriptionClosed by construction
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves Close to cut connections
	_ = s.hs.Close()
	_ = s.server.Shutdown(ctx)
	<-s.served
}

// subscriber is the standing subscription's callback state: when each
// epoch's MatchDelta arrived and the running embedding balance.
type subscriber struct {
	mu      sync.Mutex
	arrived map[uint64]time.Time
	net     int64 // Σ|Added| − Σ|Removed|
}

func newSubscriber() *subscriber {
	return &subscriber{arrived: make(map[uint64]time.Time)}
}

func (s *subscriber) emit(md fast.MatchDelta) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arrived[md.Epoch] = now
	s.net += int64(len(md.Added)) - int64(len(md.Removed))
	return nil
}

// waitFor polls until the MatchDelta of epoch has arrived or the timeout
// passes, and reports whether it arrived. It runs after the measured phase.
func (s *subscriber) waitFor(epoch uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		_, ok := s.arrived[epoch]
		s.mu.Unlock()
		if ok || epoch == 0 || time.Now().After(deadline) {
			return ok || epoch == 0
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// client is the load generator's HTTP side: one transport capped at the
// two connections every workload is allowed.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, url: url}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// errRefused marks a reply that is not a full answer: a non-200 status or a
// partial count. It counts against ok_ratio, never as a wrong count.
var errRefused = errors.New("refused or partial")

func (c *client) post(path string, body []byte, out any) error {
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: %s %d: %s", errRefused, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// count posts one /count and returns the full count.
func (c *client) count(body []byte) (int64, error) {
	var r struct {
		Count   int64 `json:"count"`
		Partial bool  `json:"partial"`
	}
	if err := c.post("/count", body, &r); err != nil {
		return 0, err
	}
	if r.Partial {
		return r.Count, fmt.Errorf("%w: partial count %d", errRefused, r.Count)
	}
	return r.Count, nil
}

// delta posts one /delta batch and returns the committed epoch.
func (c *client) delta(d graph.Delta) (uint64, error) {
	body, err := json.Marshal(map[string]any{
		"add_vertices": d.AddVertices,
		"del_vertices": d.DelVertices,
		"add_edges":    d.AddEdges,
		"del_edges":    d.DelEdges,
	})
	if err != nil {
		return 0, err
	}
	var r struct {
		Epoch uint64 `json:"epoch"`
	}
	err = c.post("/delta", body, &r)
	return r.Epoch, err
}

// countBody spells a query out as labels plus edges, so the server needs no
// query catalogue of its own.
func countBody(q *graph.Query) []byte {
	labels := make([]graph.Label, q.NumVertices())
	var edges [][2]int
	for u := range labels {
		labels[u] = q.Label(u)
		for _, v := range q.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	body, _ := json.Marshal(map[string]any{"labels": labels, "edges": edges}) // plain slices cannot fail
	return body
}
