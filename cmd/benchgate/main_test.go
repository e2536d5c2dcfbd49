package main

import "testing"

// TestSeriesName pins the series matching: the gated name with or
// without testing's -<GOMAXPROCS> suffix, and nothing that merely
// starts with it.
func TestSeriesName(t *testing.T) {
	const bench = "BenchmarkEngineThroughput/workers=1"
	for name, want := range map[string]bool{
		"BenchmarkEngineThroughput/workers=1":     true,
		"BenchmarkEngineThroughput/workers=1-2":   true,
		"BenchmarkEngineThroughput/workers=1-64":  true,
		"BenchmarkEngineThroughput/workers=10":    false,
		"BenchmarkEngineThroughput/workers=10-2":  false,
		"BenchmarkEngineThroughput/workers=1x":    false,
		"BenchmarkEngineThroughput/workers=1x-2":  false,
		"BenchmarkEngineThroughput/workers=1-":    false,
		"BenchmarkEngineThroughput/workers=1-0":   false,
		"BenchmarkEngineThroughput/workers=1-02":  false,
		"BenchmarkEngineThroughput/workers=1--2":  false,
		"BenchmarkEngineThroughput/workers=1-2-2": false,
		"BenchmarkEngineThroughput/workers=2-1":   false,
		"BenchmarkEngineThroughput":               false,
	} {
		if got := seriesName(name, bench); got != want {
			t.Errorf("seriesName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestParseBenchLinesSuffixed reads a result line printed under
// GOMAXPROCS=2 and ignores the neighbouring workers=10 series.
func TestParseBenchLinesSuffixed(t *testing.T) {
	text := "BenchmarkEngineThroughput/workers=10-2 \t 50\t 100 ns/op\t 900000 msgs/sec\t 10 allocs/op\n" +
		"BenchmarkEngineThroughput/workers=1-2 \t 40\t 200 ns/op\t 283832 msgs/sec\t 2048 allocs/op\n"
	res, err := parseBenchLines(text, "BenchmarkEngineThroughput/workers=1")
	if err != nil {
		t.Fatal(err)
	}
	if res.msgsPerSec != 283832 || res.allocsPerOp != 2048 {
		t.Fatalf("parsed %+v, want 283832 msgs/sec and 2048 allocs/op", res)
	}
	if _, err := parseBenchLines("BenchmarkEngineThroughput/workers=10-2 50 100 ns/op 9 msgs/sec\n",
		"BenchmarkEngineThroughput/workers=1"); err == nil {
		t.Fatal("workers=10 accepted as workers=1")
	}
}
