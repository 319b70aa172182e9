//! Element-swapping annealer — the structure of canneal. The race-free
//! version acquires the two element locks in index order before swapping;
//! the "unmodified" version swaps with **no locks at all**, modelling
//! canneal's lock-free synchronization strategy whose races the paper
//! found too numerous to remove (Section 6.1).

use super::{compute, mix, racy_probe, KernelRng};
use crate::params::KernelParams;
use clean_runtime::{CleanRuntime, Result};

const LOCKS: usize = 16;

pub(crate) fn run(rt: &CleanRuntime, p: &KernelParams) -> Result<u64> {
    let elements = 64 * p.scale.factor();
    let swaps = 30 * p.scale.factor();
    let threads = p.threads;
    let cells = rt.alloc_array::<u32>(elements)?;
    let probe = rt.alloc_array::<u32>(2)?;
    let locks: Vec<_> = (0..LOCKS).map(|_| rt.create_mutex()).collect();
    let cpa = p.compute_per_access;
    let params = *p;

    rt.run(|ctx| {
        for i in 0..elements {
            ctx.write(&cells, i, i as u32)?;
        }
        let mut kids = Vec::new();
        for t in 0..threads {
            let locks = locks.clone();
            kids.push(ctx.spawn(move |c| {
                racy_probe(c, &probe, &params, t)?;
                let mut rng = KernelRng::new(params.seed ^ ((t as u64) << 24) | 1);
                for _ in 0..swaps {
                    let i = rng.below(elements as u64) as usize;
                    let mut j = rng.below(elements as u64) as usize;
                    if i == j {
                        j = (j + 1) % elements;
                    }
                    compute(c, cpa);
                    if params.racy {
                        // canneal's lock-free strategy: racy swap.
                        let a = c.read(&cells, i)?;
                        let b = c.read(&cells, j)?;
                        c.write(&cells, i, b)?;
                        c.write(&cells, j, a)?;
                    } else {
                        // Ordered two-lock acquisition prevents deadlock.
                        let (lo, hi) = (i.min(j), i.max(j));
                        c.lock(&locks[lo % LOCKS])?;
                        if hi % LOCKS != lo % LOCKS {
                            c.lock(&locks[hi % LOCKS])?;
                        }
                        let a = c.read(&cells, i)?;
                        let b = c.read(&cells, j)?;
                        c.write(&cells, i, b)?;
                        c.write(&cells, j, a)?;
                        if hi % LOCKS != lo % LOCKS {
                            c.unlock(&locks[hi % LOCKS])?;
                        }
                        c.unlock(&locks[lo % LOCKS])?;
                    }
                }
                Ok(())
            })?);
        }
        for k in kids {
            ctx.join(k)??;
        }
        let mut out = 0u64;
        let mut sum = 0u64;
        for i in 0..elements {
            let v = ctx.read(&cells, i)?;
            sum += u64::from(v);
            out = mix(out, u64::from(v));
        }
        // Locked swaps permute: the multiset of values is invariant. Two
        // racy swaps that interleave can duplicate one value over another.
        if !params.racy {
            assert_eq!(sum, (elements as u64 * (elements as u64 - 1)) / 2);
        }
        Ok(out)
    })
}
