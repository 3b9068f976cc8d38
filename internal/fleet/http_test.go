package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

// FuzzFleetHandler posts arbitrary bodies to the protocol's three
// routes. Whatever the body, the handler must not panic, must answer
// only a status its route documents (see the mapping in http.go), and
// must leave the queue and the lease table untouched when it answers
// 400. Every input starts from the same state: task 1 leased to w0 at
// epoch 1, task 2 queued — so a well-formed claim is granted at once
// instead of long-polling.
func FuzzFleetHandler(f *testing.F) {
	routes := []struct {
		path  string
		codes []int
	}{
		{"/fleet/claimbatch", []int{http.StatusOK, http.StatusNoContent, http.StatusBadRequest,
			http.StatusForbidden, http.StatusBadGateway, http.StatusServiceUnavailable}},
		{"/fleet/heartbeat", []int{http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusBadGateway}},
		{"/fleet/reportbatch", []int{http.StatusOK, http.StatusBadRequest, http.StatusBadGateway}},
	}
	f.Add(uint8(0), []byte(`{"worker":"w1","wait_millis":100,"max":2}`))
	f.Add(uint8(1), []byte(`{"worker":"w0","task":"job-fuzz/cfr/1#1","epoch":1}`))
	f.Add(uint8(2), []byte(`{"worker":"w0","reports":[{"task":"job-fuzz/cfr/1#1","epoch":1,"outcome":{"total":"0x1p+00","cost":{"runs":1}}}]}`))
	f.Add(uint8(2), []byte(`{"worker":"w0","reports":[{"task":"job-fuzz/cfr/1#1","epoch":2,"error":"boom"},{"task":"nope","epoch":1}]}`))
	f.Add(uint8(2), []byte(`{"worker":"w0","reports":[{"task":"job-fuzz/cfr/1#1","epoch":1,"outcome":{"total":"0x1p+00","cost":{"runs":1},"span":["compile 0  12 0  ","link 1  0 0  ","run 2 ok 0 0 0x1p+00 0x1p+00","eval 3 ok 0 0 0x1p+00 0x1p+00"]}}]}`))
	f.Add(uint8(2), []byte(`{"worker":"w0","reports":[{"task":"job-fuzz/cfr/1#1","epoch":1,"outcome":{"total":"0x1p+00","cost":{"runs":1},"span":["compile 0 12 0","run -1 ok 0 0 0x1p+00 NaN x"]}}]}`))
	f.Add(uint8(0), []byte(`{"worker":"","max":-1}`))
	f.Add(uint8(1), []byte(`{"worker":"w0","task":"job-fuzz/cfr/1#1","epoch":1,"extra":true}`))
	f.Add(uint8(2), []byte(`not json`))

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := routes[int(route)%len(routes)]
		coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		defer coord.Close()
		for s := 1; s <= 2; s++ {
			if _, err := coord.enqueue("job-fuzz", testSpec(), batchRequest(s)); err != nil {
				t.Fatalf("enqueue: %v", err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if ts, err := coord.ClaimBatch(ctx, "w0", 0, 1); err != nil || len(ts) != 1 {
			t.Fatalf("setup claim: %v, %v", ts, err)
		}
		queue, leases := coord.QueueDepth(), coord.ActiveLeases()

		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(body)).WithContext(ctx)
		coord.Handler().ServeHTTP(rec, req)
		if !slices.Contains(r.codes, rec.Code) {
			t.Fatalf("POST %s %q = %d, not a documented status %v", r.path, body, rec.Code, r.codes)
		}
		if rec.Code == http.StatusBadRequest && (coord.QueueDepth() != queue || coord.ActiveLeases() != leases) {
			t.Fatalf("POST %s %q answered 400 but moved state: queue %d→%d, leases %d→%d",
				r.path, body, queue, coord.QueueDepth(), leases, coord.ActiveLeases())
		}
	})
}
