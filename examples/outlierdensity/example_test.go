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

// Example pins the density walkthrough: planted outliers rank among
// the lowest estimated density scores.
func Example() {
	main()
	// Output:
	// database: 1510 vectors (last 10 are planted outliers)
	//
	// lowest estimated density scores (area under the curve):
	//    1. outlier-6    estimated     0.0   exact    4
	//    2. outlier-0    estimated     0.0   exact   24
	//    3. outlier-2    estimated     0.0   exact    8
	//    4. outlier-3    estimated     0.0   exact    7
	//    5. inlier-16    estimated     0.0   exact   91
	//    6. inlier-34    estimated     0.0   exact  101
	//    7. inlier-3     estimated     0.0   exact   76
	//    8. outlier-7    estimated     0.0   exact   67
	//    9. inlier-31    estimated     0.0   exact   84
	//   10. inlier-19    estimated     0.3   exact   38
	//
	// bottom-10 agreement between estimated and exact density: 6/10
	// planted outliers in the estimated bottom-10: 5 of 10
}
