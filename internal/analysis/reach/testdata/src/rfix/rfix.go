// Package rfix is the reach fixture. Its roots are init, the package var and
// the annotated functions.
package rfix

// Shape is converted to from a Square here and from a Circle only in
// rfix_test.go.
type Shape interface{ Area() float64 }

type Square struct{ s float64 }

func (q Square) Area() float64 { return q.s * q.s }

type Circle struct{ r float64 }

func (c Circle) Area() float64 { return 3 * c.r * c.r } // want `^Circle\.Area is unreachable`

var shapes = []Shape{Square{2}}

func init() { total(shapes) }

func total(ss []Shape) (t float64) {
	for _, s := range ss {
		t += s.Area()
	}
	return t
}

func unused() {} // want `^unused is unreachable`

//distbound:api
func seam() {} // want `//distbound:api requires a reason`

//distbound:oracle
func reference() {} // want `//distbound:oracle requires a reason`

//distbound:oracle the tests compare total against it
func sum(a, b float64) float64 { return a + b }
