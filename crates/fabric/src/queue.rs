//! FIFO queues used by the FIL chips (Fig. 2: input queue, request
//! queue, outgoing queue, incoming queue).

use std::collections::VecDeque;

/// An unbounded FIFO queue with a high-water mark. Lookup traffic in
/// the simulator is never silently dropped: pressure shows up as latency
/// and in the high-water mark instead.
#[derive(Debug, Clone)]
pub struct Queue<T> {
    items: VecDeque<T>,
    high_water: usize,
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl<T> Queue<T> {
    /// An empty queue.
    pub fn unbounded() -> Self {
        Queue {
            items: VecDeque::new(),
            high_water: 0,
        }
    }

    /// Append an item.
    pub fn push(&mut self, item: T) {
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
    }

    /// Remove and return the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Largest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = Queue::unbounded();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = Queue::unbounded();
        q.push(1);
        q.push(2);
        q.pop();
        q.push(3);
        assert_eq!(q.high_water(), 2);
    }
}
