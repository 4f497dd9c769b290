//! Dense generational slab — the PR 2 dense-index trick applied to the
//! simulator's own per-server visit table.
//!
//! The DES hot path touches a server's live-visit state on every CPU
//! completion, downstream response, and wait expiry. A `HashMap<u64, Visit>`
//! makes each of those a hash + probe; this slab makes them an index deref:
//! a visit's token *is* its slot index (low 32 bits) plus the slot's
//! generation (high 32 bits), so lookup is a bounds check and a generation
//! compare. Vacant slots form an **intrusive free list** — the next-free
//! link lives inside the vacated slot itself, so the allocator needs no
//! side stack and insert/remove never allocate once the slab has reached
//! its steady-state high-water mark (pre-size with
//! [`Slab::with_capacity`] from the config's thread + backlog bound and it
//! never allocates at all).
//!
//! Generations make stale tokens detectable: removing a slot bumps its
//! generation, so a token retained across a remove/reuse cycle misses on
//! the generation compare instead of silently aliasing the new occupant.
//! Tokens are only meaningful within the slab that issued them, which is
//! exactly the simulator's use: every event that carries a visit token
//! carries the owning server index next to it.

/// Sentinel terminating the intrusive free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<T> {
    /// Bumped on every remove; a token is live iff its generation matches.
    gen: u32,
    /// Intrusive free-list link, meaningful only while vacant.
    next_free: u32,
    val: Option<T>,
}

/// A dense generational slab issuing `u64` tokens.
///
/// # Examples
///
/// ```
/// let mut slab = fgbd_ntier::arena::Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.get(a), Some(&"alpha"));
/// assert_eq!(slab.remove(a), Some("alpha"));
/// assert_eq!(slab.get(a), None, "stale token misses");
/// let c = slab.insert("gamma"); // reuses slot a under a new generation
/// assert_ne!(a, c);
/// assert_eq!(slab.get(b), Some(&"beta"));
/// assert_eq!(slab.get(c), Some(&"gamma"));
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    live: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    /// An empty slab with room for `cap` values before any reallocation.
    pub fn with_capacity(cap: usize) -> Slab<T> {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            live: 0,
        }
    }

    fn token(gen: u32, idx: u32) -> u64 {
        (u64::from(gen) << 32) | u64::from(idx)
    }

    fn split(token: u64) -> (u32, u32) {
        ((token >> 32) as u32, token as u32)
    }

    /// Stores `val`, returning its token. Reuses the most recently vacated
    /// slot if any (LIFO keeps the working set dense), else grows.
    pub fn insert(&mut self, val: T) -> u64 {
        self.live += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next_free;
            debug_assert!(slot.val.is_none());
            slot.val = Some(val);
            Slab::<T>::token(slot.gen, idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
            assert_ne!(idx, NIL, "slab exceeds u32 slots");
            self.slots.push(Slot {
                gen: 0,
                next_free: NIL,
                val: Some(val),
            });
            Slab::<T>::token(0, idx)
        }
    }

    /// The value for `token`, or `None` if the token is stale or foreign.
    #[inline]
    pub fn get(&self, token: u64) -> Option<&T> {
        let (gen, idx) = Slab::<T>::split(token);
        match self.slots.get(idx as usize) {
            Some(slot) if slot.gen == gen => slot.val.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the value for `token`.
    #[inline]
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let (gen, idx) = Slab::<T>::split(token);
        match self.slots.get_mut(idx as usize) {
            Some(slot) if slot.gen == gen => slot.val.as_mut(),
            _ => None,
        }
    }

    /// Removes and returns the value for `token`, pushing its slot onto the
    /// free list under a new generation. Stale tokens return `None`.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let (gen, idx) = Slab::<T>::split(token);
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.gen != gen {
            return None;
        }
        let val = slot.val.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        slot.next_free = self.free_head;
        self.free_head = idx;
        self.live -= 1;
        Some(val)
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// `true` if no values are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&10));
        assert_eq!(slab.get_mut(b).map(|v| std::mem::replace(v, 21)), Some(20));
        assert_eq!(slab.remove(a), Some(10));
        assert_eq!(slab.remove(a), None, "double remove misses");
        assert_eq!(slab.get(b), Some(&21));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slots_are_reused_lifo_with_fresh_generations() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.remove(a);
        slab.remove(b);
        // LIFO: b's slot comes back first.
        let c = slab.insert(3);
        let d = slab.insert(4);
        assert_eq!(slab.slots.len(), 2, "no growth on reuse");
        assert_eq!(c & 0xFFFF_FFFF, b & 0xFFFF_FFFF);
        assert_eq!(d & 0xFFFF_FFFF, a & 0xFFFF_FFFF);
        assert_ne!(c, b, "reused slot has a new generation");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(b), None);
        assert_eq!(slab.get(c), Some(&3));
        assert_eq!(slab.get(d), Some(&4));
    }

    #[test]
    fn stale_token_never_aliases_new_occupant() {
        let mut slab = Slab::new();
        let a = slab.insert("old");
        slab.remove(a);
        let _b = slab.insert("new");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
    }

    #[test]
    fn with_capacity_does_not_grow_within_bound() {
        let mut slab = Slab::with_capacity(8);
        let cap = slab.slots.capacity();
        let tokens: Vec<u64> = (0..8).map(|i| slab.insert(i)).collect();
        for t in tokens {
            slab.remove(t);
        }
        for i in 0..8 {
            slab.insert(i);
        }
        assert_eq!(slab.slots.capacity(), cap);
        assert_eq!(slab.slots.len(), 8);
    }

    #[test]
    fn churn_keeps_len_consistent() {
        let mut slab = Slab::with_capacity(4);
        let mut live = Vec::new();
        for round in 0..100u64 {
            live.push(slab.insert(round));
            if round % 3 == 0 {
                let t = live.remove((round as usize * 7) % live.len());
                assert!(slab.remove(t).is_some());
            }
            assert_eq!(slab.len(), live.len());
        }
        for t in live {
            assert!(slab.remove(t).is_some());
        }
        assert!(slab.is_empty());
    }
}
