package main

import (
	"fmt"
	"os"
	"testing"

	"selnet/internal/tensor"
)

// TestMain runs the pinned Example only where its output holds. The run
// is seeded, but training turns a one-ulp difference in any product into
// other printed numbers, so the pin needs the packed GEMM to fuse every
// multiply-add: amd64 with AVX2+FMA, built without tensor_noopt. An
// Example cannot skip itself, so on other CPUs and builds the package
// exits before running it.
func TestMain(m *testing.M) {
	if !tensor.SIMDEnabled() || !tensor.Optimized() {
		fmt.Println("skipping Example: the portable kernels print other numbers than the pin")
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Example pins the query-planning walkthrough: estimated predicate
// selectivities pick the probe order of a blocking rule.
func Example() {
	main()
	// Output:
	// blocking rule: addr-sim AND name-sim AND phone-sim, query record 1191
	//
	// predicate selectivity estimates:
	//   addr   t=0.227  estimated     15.1   exact    446
	//   name   t=0.165  estimated      7.1   exact     12
	//   phone  t=0.121  estimated      8.9   exact     11
	//
	// optimized order: name -> phone -> addr   (rule order: addr -> name -> phone)
	//
	// plan cost (index probe + candidate verifications):
	//   rule order:           896
	//   optimized order:       25  (35.8x cheaper)
}
