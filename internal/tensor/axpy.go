package tensor

// axpyGo computes y[i] += a·x[i] for every i < len(x): the portable
// form of axpy, and the reference its assembly is tested against. The
// explicit float32 conversion rounds the product before the add. Go's
// spec lets a compiler fuse x*y + z otherwise, and arm64 does (FMADDS),
// which would round once and disagree with amd64's MULPS then ADDPS.
func axpyGo(a float32, x, y []float32) {
	y = y[:len(x):len(y)]
	for i, v := range x {
		y[i] += float32(a * v)
	}
}
