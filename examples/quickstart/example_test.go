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

// Example pins the walkthrough of the consistency claim: a trained
// SelNet whose estimates are monotone in the threshold.
func Example() {
	main()
	// Output:
	// database: 2000 vectors, dim 16, distance cos
	// workload: 512 train / 64 valid / 64 test queries, t_max 0.5249
	//
	// test errors: MSE 12.24  MAE 2.31  MAPE 0.435
	//
	//   threshold   estimated     exact
	//      0.0000         1.1         1
	//      0.0656         1.3         1
	//      0.1312         1.3         1
	//      0.1969         2.3         1
	//      0.2625         6.5         7
	//      0.3281        13.3        16
	//      0.3937        28.1        23
	//      0.4593        31.1        55
	//      0.5249        36.4       105
	//
	// monotone in t, as guaranteed by construction.
}
