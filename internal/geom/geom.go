// Package geom provides the small amount of computational geometry the
// STANCE runtime needs: points embedded in two or three dimensions and
// axis-aligned bounding boxes. The paper's locality transformations
// (Section 3.1) operate on computational graphs whose vertices carry
// physical coordinates; this package is their substrate.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in up to three dimensions. Two-dimensional data
// leaves Z at zero.
type Point struct {
	X, Y, Z float64
}

// Coord returns the axis-th coordinate (0 = X, 1 = Y, 2 = Z). It is
// small enough to inline, so per-vertex loops can call it.
func (p Point) Coord(axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	case 2:
		return p.Z
	}
	panic("geom: invalid axis")
}

// WithCoord returns a copy of p with the axis-th coordinate replaced.
func (p Point) WithCoord(axis int, v float64) Point {
	switch axis {
	case 0:
		p.X = v
	case 1:
		p.Y = v
	case 2:
		p.Z = v
	default:
		panic(fmt.Sprintf("geom: invalid axis %d", axis))
	}
	return p
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s, p.Z * s} }

// Dot returns the dot product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return p.Sub(q).Norm() }

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max Point
}

// EmptyBox returns a box that contains nothing; extending it with any
// point yields a degenerate box around that point.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{
		Min: Point{inf, inf, inf},
		Max: Point{-inf, -inf, -inf},
	}
}

// Extend grows the box to contain p.
func (b Box) Extend(p Point) Box {
	b.Min.X = math.Min(b.Min.X, p.X)
	b.Min.Y = math.Min(b.Min.Y, p.Y)
	b.Min.Z = math.Min(b.Min.Z, p.Z)
	b.Max.X = math.Max(b.Max.X, p.X)
	b.Max.Y = math.Max(b.Max.Y, p.Y)
	b.Max.Z = math.Max(b.Max.Z, p.Z)
	return b
}

// Bounds returns the bounding box of pts. It returns EmptyBox() for an
// empty slice.
func Bounds(pts []Point) Box {
	b := EmptyBox()
	for _, p := range pts {
		b = b.Extend(p)
	}
	return b
}

// Extent returns the box's side length along axis.
func (b Box) Extent(axis int) float64 {
	return b.Max.Coord(axis) - b.Min.Coord(axis)
}

// LongestAxis returns the axis (0, 1 or 2) with the largest extent,
// preferring lower axes on ties.
func (b Box) LongestAxis() int {
	best, bestExt := 0, b.Extent(0)
	for axis := 1; axis < 3; axis++ {
		if ext := b.Extent(axis); ext > bestExt {
			best, bestExt = axis, ext
		}
	}
	return best
}

// Contains reports whether p lies inside the closed box.
func (b Box) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Centroid returns the arithmetic mean of pts. It returns the zero
// point for an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}
