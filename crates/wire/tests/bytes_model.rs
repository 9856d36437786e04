//! Model test of the vendored `bytes` crate the wire formats are built
//! on: a builder ([`BytesMut`]) and any number of frozen views
//! ([`Bytes`]) driven by random operations, each checked after every
//! step against plain `Vec<u8>` copies of what it should hold.
//!
//! The storages are shared (split, slice, clone), taken over in place
//! (`try_into_mut`, `reserve`'s reclaim) and recycled through the
//! per-thread free list once their last view drops. Fresh frame-sized
//! buffers are filled to their full capacity with junk, so a storage
//! handed out while a view of it was still alive would show up as a
//! changed view.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Appends `n` bytes counting up from the seed.
    Extend(usize, u8),
    Reserve(usize),
    Truncate(usize),
    Resize(usize, u8),
    Clear,
    /// Overwrites one written byte of the builder through `DerefMut`.
    Poke(usize, u8),
    /// Splits the written bytes off the builder and freezes them.
    SplitFreeze,
    /// Slices view `k` at `lo .. hi` (both reduced into range).
    Slice(usize, usize, usize),
    Clone(usize),
    Drop(usize),
    /// Takes view `k` back as a builder when it is the storage's only
    /// view, overwrites every byte and grows it, then freezes it again.
    TryIntoMut(usize, u8),
    /// A new frame-sized buffer filled to capacity, kept as a view.
    Fresh(usize, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..1600, any::<u8>()).prop_map(|(n, s)| Op::Extend(n, s)),
        1 => (0usize..3000).prop_map(Op::Reserve),
        1 => (0usize..1600).prop_map(Op::Truncate),
        1 => (0usize..1600, any::<u8>()).prop_map(|(n, v)| Op::Resize(n, v)),
        1 => Just(Op::Clear),
        2 => (any::<usize>(), any::<u8>()).prop_map(|(i, v)| Op::Poke(i, v)),
        3 => Just(Op::SplitFreeze),
        2 => (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(k, a, b)| Op::Slice(k, a, b)),
        1 => any::<usize>().prop_map(Op::Clone),
        3 => any::<usize>().prop_map(Op::Drop),
        2 => (any::<usize>(), any::<u8>()).prop_map(|(k, v)| Op::TryIntoMut(k, v)),
        2 => (0usize..512, any::<u8>()).prop_map(|(n, v)| Op::Fresh(1024 + n, v)),
    ]
}

struct World {
    buf: BytesMut,
    buf_model: Vec<u8>,
    views: Vec<(Bytes, Vec<u8>)>,
}

impl World {
    fn check(&self) {
        assert_eq!(&self.buf[..], &self.buf_model[..], "builder");
        assert_eq!(self.buf.len(), self.buf_model.len());
        assert!(self.buf.capacity() >= self.buf.len());
        for (i, (b, m)) in self.views.iter().enumerate() {
            assert_eq!(&b[..], &m[..], "view {i}");
            assert_eq!(b.len(), m.len());
        }
    }

    fn apply(&mut self, op: &Op) {
        let pick = |k: usize, n: usize| (n > 0).then(|| k % n);
        match *op {
            Op::Extend(n, seed) => {
                let data: Vec<u8> = (0..n).map(|i| seed.wrapping_add(i as u8)).collect();
                self.buf.put_slice(&data);
                self.buf_model.extend_from_slice(&data);
            }
            Op::Reserve(n) => {
                self.buf.reserve(n);
                assert!(self.buf.capacity() - self.buf.len() >= n);
            }
            Op::Truncate(n) => {
                self.buf.truncate(n);
                self.buf_model.truncate(n);
            }
            Op::Resize(n, v) => {
                self.buf.resize(n, v);
                self.buf_model.resize(n, v);
            }
            Op::Clear => {
                self.buf.clear();
                self.buf_model.clear();
            }
            Op::Poke(i, v) => {
                if let Some(i) = pick(i, self.buf_model.len()) {
                    self.buf[i] = v;
                    self.buf_model[i] = v;
                }
            }
            Op::SplitFreeze => {
                let frozen = self.buf.split().freeze();
                assert!(self.buf.is_empty());
                self.views
                    .push((frozen, std::mem::take(&mut self.buf_model)));
            }
            Op::Slice(k, a, b) => {
                if let Some(k) = pick(k, self.views.len()) {
                    let (view, model) = &self.views[k];
                    let (mut lo, mut hi) = (a % (model.len() + 1), b % (model.len() + 1));
                    if lo > hi {
                        std::mem::swap(&mut lo, &mut hi);
                    }
                    let part = (view.slice(lo..hi), model[lo..hi].to_vec());
                    self.views.push(part);
                }
            }
            Op::Clone(k) => {
                if let Some(k) = pick(k, self.views.len()) {
                    let copy = self.views[k].clone();
                    self.views.push(copy);
                }
            }
            Op::Drop(k) => {
                if let Some(k) = pick(k, self.views.len()) {
                    self.views.swap_remove(k);
                }
            }
            Op::TryIntoMut(k, v) => {
                if let Some(k) = pick(k, self.views.len()) {
                    let (view, mut model) = self.views.swap_remove(k);
                    let view = match view.try_into_mut() {
                        Ok(mut m) => {
                            assert_eq!(&m[..], &model[..]);
                            m.iter_mut().for_each(|b| *b = v);
                            model.iter_mut().for_each(|b| *b = v);
                            m.put_slice(&[v; 8]);
                            model.extend_from_slice(&[v; 8]);
                            m.freeze()
                        }
                        Err(view) => view,
                    };
                    self.views.push((view, model));
                }
            }
            Op::Fresh(cap, v) => {
                let mut m = BytesMut::with_capacity(cap);
                let full = m.capacity();
                assert!(full >= cap);
                m.resize(full, v);
                self.views.push((m.freeze(), vec![v; full]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bytes_and_bytes_mut_behave_like_vectors(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut world = World {
            buf: BytesMut::new(),
            buf_model: Vec::new(),
            views: Vec::new(),
        };
        for op in &ops {
            world.apply(op);
            world.check();
        }
        // Drop everything, then reuse the recycled storages once more.
        drop(world);
        let again: Vec<BytesMut> = (0..64).map(|_| BytesMut::with_capacity(1500)).collect();
        prop_assert!(again.iter().all(|m| m.is_empty() && m.capacity() >= 1500));
    }

    /// `try_into_mut` succeeds exactly when no other view of the
    /// storage is alive, whichever part of it the last view covers.
    #[test]
    fn try_into_mut_succeeds_only_for_the_last_view(
        len in 1usize..1600,
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let whole = Bytes::from((0..len).map(|i| i as u8).collect::<Vec<u8>>());
        let (lo, hi) = (a % len, b % len);
        let (lo, hi) = (lo.min(hi), lo.max(hi) + 1);
        let part = whole.slice(lo..hi);
        let want = part.to_vec();
        prop_assert!(part.clone().try_into_mut().is_err(), "a clone is alive");
        let part = match part.try_into_mut() {
            Ok(_) => panic!("the whole view is alive"),
            Err(part) => part,
        };
        drop(whole);
        let Ok(mut m) = part.try_into_mut() else {
            panic!("the last view is unique");
        };
        prop_assert_eq!(&m[..], &want[..]);
        prop_assert!(m.capacity() >= len - lo);
        m.put_slice(b"tail");
        prop_assert_eq!(&m[want.len()..], b"tail");
    }
}
