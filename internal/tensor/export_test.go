package tensor

// ConvPlanBuilds is how many convolution pass lists have been built since
// the process started.
func ConvPlanBuilds() int {
	convPlans.Lock()
	defer convPlans.Unlock()
	return convPlans.builds
}

// ConvPlanCap is how many pass lists the plan table holds.
const ConvPlanCap = convPlanCap

// Conv2DNaiveRef and Conv2DBackwardNaiveRef are the elementwise references
// the convolution kernels are pinned to (conv_test.go).
var (
	Conv2DNaiveRef         = conv2DNaiveRef
	Conv2DBackwardNaiveRef = conv2DBackwardNaiveRef
)
