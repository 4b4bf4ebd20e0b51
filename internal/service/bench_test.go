package service

// Service-path benchmarks: job admission-to-completion through the real
// executor, and the serving path through the real HTTP handler. CI runs
// these with -benchtime 1x as a smoke test; servebench/ measures the
// end-to-end serving numbers against the real ivmfd binary.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func benchService(b *testing.B) (*Service, *sparse.ICSR) {
	const rows, cols = 120, 80
	m := testMatrix(b, 97, rows, cols, 0.15)
	s := New(Config{})
	s.Start()
	b.Cleanup(func() { s.Drain(context.Background()) })
	return s, m
}

func BenchmarkServiceDecompose(b *testing.B) {
	s, m := benchService(b)
	coo := cooText(b, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := mustSubmit(b, s, Request{Tenant: "bench", Kind: "decompose",
			Rank: 8, Target: "b", Min: 1, Max: 5, COO: coo})
		waitJob(b, s, info.ID)
	}
}

func BenchmarkServiceUpdate(b *testing.B) {
	s, m := benchService(b)
	info := mustSubmit(b, s, Request{Tenant: "bench", Kind: "decompose",
		Rank: 8, Target: "b", Min: 1, Max: 5, COO: cooText(b, m)})
	waitJob(b, s, info.ID)
	patch := []sparse.ITriplet{
		{Row: 3, Col: 4, Lo: 2, Hi: 2.5},
		{Row: 50, Col: 60, Lo: 4, Hi: 4.5},
	}
	delta := deltaText(b, m.Rows, m.Cols, patch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := mustSubmit(b, s, Request{Tenant: "bench", Kind: "update", Delta: delta})
		waitJob(b, s, info.ID)
	}
}

func BenchmarkServicePredict(b *testing.B) {
	s, m := benchService(b)
	info := mustSubmit(b, s, Request{Tenant: "bench", Kind: "decompose",
		Rank: 8, Target: "b", Min: 1, Max: 5, COO: cooText(b, m)})
	waitJob(b, s, info.ID)
	handler := s.Handler()
	body := `{"tenant":"bench","cells":[[0,0],[1,5],[20,30],[119,79]]}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
}
