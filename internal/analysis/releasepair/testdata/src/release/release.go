// Package release models the Response/Release pooling shape for the
// releasepair fixtures.
package release

type respScratch struct{ out []float64 }

type Response struct {
	Results []float64
	scratch *respScratch
}

func (r *Response) Release() {}

func Do() *Response { return &Response{Results: []float64{1}} }

func good() float64 {
	r := Do()
	v := r.Results[0]
	r.Release()
	return v
}

func deferred() float64 {
	r := Do()
	defer r.Release()
	return r.Results[0]
}

func bad() float64 {
	r := Do()
	r.Release()
	return r.Results[0] // want `read after`
}

func badBranch(cond bool) float64 {
	r := Do()
	if cond {
		r.Release()
	}
	return r.Results[0] // want `read after`
}

func badLoop(n int) float64 {
	r := Do()
	total := 0.0
	for i := 0; i < n; i++ {
		total += r.Results[0] // want `read after`
		r.Release()
	}
	return total
}

func rearmed() float64 {
	r := Do()
	r.Release()
	r = Do()
	v := r.Results[0]
	r.Release()
	return v
}

func independent() float64 {
	a := Do()
	b := Do()
	a.Release()
	v := b.Results[0] // b is still live
	b.Release()
	return v
}
