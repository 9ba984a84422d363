// Package store declares a method that only an interface of another
// package reaches.
package store

// Item is what a Store holds.
type Item struct{}

// Store satisfies lib.Sink.
type Store struct{ items []*Item }

// Put is reached through lib.Sink, whose signature names Item as the lib
// package sees it.
func (s *Store) Put(it *Item) { s.items = append(s.items, it) }
