//! A list shared copy on write, whole.
//!
//! A versioned document the control plane distributes (a policy's tenants,
//! a route table) is held in many places at once: staged and running on
//! every gateway of a wave, installed on nodes, archived, in flight. Each of
//! those holders is a clone, and almost none of them ever edits it.
//! [`SharedList`] makes that the cheap case: the list is one [`Arc`] over a
//! `Vec`, so a clone is one reference count whatever the length, and every
//! clone of a version is one allocation.
//!
//! An edit pays where it happens. Every mutator first makes the list its own
//! ([`Arc::make_mut`]): if another holder shares it, that copies the `Vec`,
//! once per edit of a shared list and not again until it is shared again.
//! No holder of a clone can see the edit. What a copy costs is the element
//! type's `clone()`: a list of `Arc`s (a policy's tenants) copies pointers
//! and shares every element the edit leaves alone, a list of small values
//! (routes) copies them.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An ordered list of `T`, shared copy on write: see the module docs. It
/// derefs to the slice; `==` is element-wise `T::eq`, skipped for two lists
/// holding the same allocation ([`Arc`]'s shortcut for `Eq` types); `Debug`
/// prints the elements as a slice would.
#[derive(PartialEq, Eq)]
pub struct SharedList<T>(Arc<Vec<T>>);

impl<T: Clone> SharedList<T> {
    /// The `Vec` to edit: this list's own, copied now if another list shares
    /// it.
    fn own(&mut self) -> &mut Vec<T> {
        Arc::make_mut(&mut self.0)
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        self.own().push(value);
    }

    /// Insert an element at position `i`, shifting the rest right.
    pub fn insert(&mut self, i: usize, value: T) {
        self.own().insert(i, value);
    }

    /// Remove and return the element at position `i`, shifting the rest
    /// left.
    pub fn remove(&mut self, i: usize) -> T {
        self.own().remove(i)
    }

    /// Swap the elements at positions `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.own().swap(a, b);
    }

    /// Rotate the list so that position `mid` comes first.
    pub fn rotate_left(&mut self, mid: usize) {
        self.own().rotate_left(mid);
    }

    /// Element `i` to edit, in this list's own copy.
    pub fn make_mut(&mut self, i: usize) -> &mut T {
        &mut self.own()[i]
    }
}

impl<T> Deref for SharedList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> Clone for SharedList<T> {
    /// One reference count, whatever the length.
    fn clone(&self) -> Self {
        SharedList(Arc::clone(&self.0))
    }
}

impl<T> Default for SharedList<T> {
    fn default() -> Self {
        SharedList(Arc::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> From<Vec<T>> for SharedList<T> {
    fn from(elements: Vec<T>) -> Self {
        SharedList(Arc::new(elements))
    }
}

impl<T> FromIterator<T> for SharedList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        SharedList::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<'a, T> IntoIterator for &'a SharedList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clone is one count on the list; the first edit of a shared list
    /// copies it, and the next edit of the now unshared copy does not.
    #[test]
    fn a_clone_is_one_count_and_an_edit_copies_the_list_once() {
        let mut list: SharedList<u32> = (0..4).collect();
        let held = list.clone();
        assert!(Arc::ptr_eq(&list.0, &held.0));
        assert_eq!(Arc::strong_count(&held.0), 2);

        *list.make_mut(2) += 10;
        assert!(!Arc::ptr_eq(&list.0, &held.0));
        assert_eq!((&list[..], &held[..]), (&[0, 1, 12, 3][..], &[0, 1, 2, 3][..]));

        let own = Arc::as_ptr(&list.0);
        *list.make_mut(2) += 10;
        list.push(4);
        assert_eq!(Arc::as_ptr(&list.0), own, "edited in place, being unshared");
        assert_eq!(format!("{list:?}"), "[0, 1, 22, 3, 4]");
        assert_ne!(list, held);
    }
}
