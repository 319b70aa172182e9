//! Sub-word writers: threads that own different bytes of one heap word
//! never lose each other's stores.
//!
//! Each of three threads owns one lane of every shared 4-byte word (a
//! `u8` at byte 0, a `u8` at byte 1, a `u16` at bytes 2..4) and rewrites
//! it many times, all three starting together and each ending an SFR
//! after every sweep. No lane is touched by two threads, so the program
//! is race-free. A heap that stored a sub-word value by reading, patching
//! and writing back its whole word would drop bytes a neighbour wrote in
//! between, which each thread sees when it rereads its own lane.

use clean_runtime::{CleanRuntime, RuntimeConfig, SharedArray};

const WORDS: usize = 16;
const SWEEPS: u32 = 20_000;

fn lane_value(sweep: u32, word: usize) -> u32 {
    sweep.wrapping_mul(31).wrapping_add(word as u32 * 7 + 1)
}

#[test]
fn neighbouring_subword_lanes_keep_every_store() {
    // Detection on, Kendo off: the three writers run truly concurrently.
    let rt = CleanRuntime::new(
        RuntimeConfig::new()
            .heap_size(1 << 12)
            .max_threads(4)
            .det_sync(false),
    );
    let words: SharedArray<u32> = rt.alloc_array(WORDS).unwrap();
    let base = words.base_addr();
    // (byte offset within the word, lane width in bytes)
    let lanes = [(0usize, 1usize), (1, 1), (2, 2)];

    let mutexes: Vec<_> = lanes.iter().map(|_| rt.create_mutex()).collect();
    let start = rt.create_barrier(lanes.len());

    let (lost, finals) = rt
        .run(|ctx| {
            let mut handles = Vec::new();
            for ((off, width), m) in lanes.into_iter().zip(mutexes) {
                let start = start.clone();
                handles.push(ctx.spawn(move |c| {
                    c.barrier_wait(&start)?;
                    let mut lost = 0u64;
                    for sweep in 0..SWEEPS {
                        for w in 0..WORDS {
                            let addr = base + 4 * w + off;
                            let value = lane_value(sweep, w);
                            let reread = if width == 1 {
                                let v = c.read_addr::<u8>(addr)?;
                                c.write_addr(addr, value as u8)?;
                                u32::from(v)
                            } else {
                                let v = c.read_addr::<u16>(addr)?;
                                c.write_addr(addr, value as u16)?;
                                u32::from(v)
                            };
                            let mask = (1u32 << (8 * width)) - 1;
                            if sweep > 0 && reread != lane_value(sweep - 1, w) & mask {
                                lost += 1;
                            }
                        }
                        // A private lock/unlock ends this thread's SFR.
                        c.lock(&m)?;
                        c.unlock(&m)?;
                    }
                    Ok(lost)
                })?);
            }
            let mut lost = 0;
            for h in handles {
                lost += ctx.join(h)??;
            }
            let finals = (0..WORDS)
                .map(|w| ctx.read(&words, w))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((lost, finals))
        })
        .expect("a race-free program raised");
    assert_eq!(
        lost, 0,
        "a lane reread a value its own thread did not write"
    );
    assert!(rt.first_race().is_none());

    // Every word holds each lane's last value, byte for byte.
    for (w, got) in finals.into_iter().enumerate() {
        let v = lane_value(SWEEPS - 1, w);
        let want = (v & 0xff) | (v & 0xff) << 8 | (v & 0xffff) << 16;
        assert_eq!(got, want, "word {w}");
    }
}
