//! The Naor–Pinkas commitment from outside the crate: the call shapes
//! the `benchmark/` package compiles against (tier-1 does not build it,
//! so a signature drift has to fail here), and what a hostile peer can do
//! with the frames — every malformed commitment, payload, keys or tables
//! frame, and a frame of the retired constants kind, ends in a typed
//! [`OtError`], never a panic. The same holds for a list of transfers in
//! one exchange, on every engine: a peer that opens another number of
//! positions than the list's `k`s, an index outside its own transfer's
//! range, and tables whose per-transfer headers are cut short, claim too
//! much or overflow.

use num_bigint::BigUint;
use ppcs_crypto::DhGroup;
use ppcs_ot::{
    commit_c_io, ot12_receive_io, ot12_receive_precommitted_io, ot12_send_precommitted_io,
    ot_begin_receive_io, ot_begin_send_io, ot_receive_io, ot_receive_list_io, ot_send_io,
    ot_send_list_io, receive_c_io, IknpOt, NaorPinkasOt, ObliviousTransfer, OtBatchState, OtError,
    OtSelect, TrustedSimOt,
};
use ppcs_transport::{run_engine_pair, Frame, ProtocolEngine, TransportError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const KIND_OT12_C: u16 = 0x0100;
const KIND_OT12_PK0: u16 = 0x0101;
const KIND_OT12_PAYLOAD: u16 = 0x0102;
/// Retired: the constants of a transfer are powers of `C`, not a frame.
const KIND_OT1N_CONSTANTS: u16 = 0x0200;
const KIND_OT1N_KEYS: u16 = 0x0201;
const KIND_OT1N_TABLES: u16 = 0x0202;
const KIND_KNX_TABLE: u16 = 0x0290;
const KIND_SIM_INDICES: u16 = 0x0300;
const KIND_SIM_MESSAGES: u16 = 0x0301;

/// `benchmark/src/ladder.rs::base_ots_ms`, token for token where types
/// are inferred: the commitment is bound with `let`, passed back by
/// reference, and the two messages are `&[u8; 32]` literals.
#[test]
fn ladder_base_ot_shape() {
    let group = DhGroup::modp_768();
    let n = 4u64;
    let mut rng_s = StdRng::seed_from_u64(1);
    let mut rng_r = StdRng::seed_from_u64(2);
    let mut send = ProtocolEngine::new(|io| async move {
        let c = commit_c_io(group, &io, &mut rng_s)?;
        for tag in 0..n {
            ot12_send_precommitted_io(group, &io, &mut rng_s, &[1; 32], &[2; 32], tag, &c).await?;
        }
        Ok::<_, ppcs_ot::OtError>(())
    });
    let mut recv = ProtocolEngine::new(|io| async move {
        let c = receive_c_io(group, &io).await?;
        for tag in 0..n {
            let got =
                ot12_receive_precommitted_io(group, &io, &mut rng_r, tag % 2 == 1, tag, &c).await?;
            assert_eq!(got[0], 1 + (tag % 2) as u8);
        }
        Ok::<_, ppcs_ot::OtError>(())
    });
    let (s, r) = run_engine_pair(&mut send, &mut recv).expect("base OT engines");
    s.expect("base OT sender");
    r.expect("base OT receiver");
}

/// `benchmark/src/ladder.rs::kn_transfer_ns` in both of its shapes, for
/// every selector the benchmark builds.
#[test]
fn ladder_k_of_n_shapes() {
    static SIM: TrustedSimOt = TrustedSimOt;
    let np: fn() -> NaorPinkasOt = NaorPinkasOt::new;
    assert_eq!(np().name(), "naor-pinkas-2048");
    let selectors: [OtSelect; 3] = [
        NaorPinkasOt::fast_insecure().select(),
        IknpOt::fast_insecure().select(),
        SIM.select(),
    ];
    let (k, n) = (2usize, 8usize);
    let messages: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 32]).collect();
    let indices = vec![6usize, 1];
    for sel in selectors {
        for in_session in [true, false] {
            let mut rng_s = StdRng::seed_from_u64(3);
            let mut rng_r = StdRng::seed_from_u64(4);
            let (messages, indices) = (&messages, &indices);
            let mut send = ProtocolEngine::new(|io| async move {
                let state = match in_session {
                    true => ot_begin_send_io(sel, &io, &mut rng_s).await?,
                    false => OtBatchState::default(),
                };
                ot_send_io(sel, &state, &io, &mut rng_s, messages, k).await
            });
            let mut recv = ProtocolEngine::new(|io| async move {
                let state = match in_session {
                    true => ot_begin_receive_io(sel, &io).await?,
                    false => OtBatchState::default(),
                };
                ot_receive_io(sel, &state, &io, &mut rng_r, n, indices).await
            });
            let (s, r) = run_engine_pair(&mut send, &mut recv).expect("k-of-N engines");
            s.expect("k-of-N sender");
            let got = r.expect("k-of-N receiver");
            assert_eq!(
                got,
                vec![messages[6].clone(), messages[1].clone()],
                "{sel:?}"
            );
        }
    }
}

/// `benchmark/src/ladder.rs::{modexp_ms, power_g_ms}`.
#[test]
fn ladder_group_shapes() {
    for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
        let mut rng = StdRng::seed_from_u64(5);
        let e = group.random_exponent(&mut rng);
        assert_eq!(group.exp(group.generator(), &e), group.power_g(&e));
    }
}

/// Pumps `a` against `b` as `run_engine_pair` does, passing every frame
/// `a` sends through `tamper`, until `b` finishes; returns `b`'s result.
fn pump_tampered<TA, EA, TB, EB>(
    a: &mut ProtocolEngine<'_, TA, EA>,
    b: &mut ProtocolEngine<'_, TB, EB>,
    mut tamper: impl FnMut(Frame) -> Frame,
) -> Result<TB, EB> {
    loop {
        let mut progressed = false;
        while let Some(out) = a.poll_output() {
            progressed = true;
            for f in out.frames() {
                b.handle_input(tamper(f.clone()));
            }
        }
        while let Some(out) = b.poll_output() {
            progressed = true;
            for f in out.frames() {
                a.handle_input(f.clone());
            }
        }
        if let Some(result) = b.take_result() {
            return result;
        }
        assert!(
            progressed,
            "engines deadlocked before the receiver finished"
        );
    }
}

/// What a single-OT receiver makes of `frames` sent in place of an
/// honest sender's.
fn receive_against(frames: Vec<Frame>) -> Result<Vec<u8>, OtError> {
    let group = DhGroup::modp_768();
    let mut rng = StdRng::seed_from_u64(9);
    let mut receiver =
        ProtocolEngine::new(
            |io| async move { ot12_receive_io(group, &io, &mut rng, true, 7).await },
        );
    for frame in frames {
        while receiver.poll_output().is_some() {}
        receiver.handle_input(frame);
    }
    while receiver.poll_output().is_some() {}
    receiver
        .take_result()
        .expect("the receiver reached a verdict")
}

fn element(group: &DhGroup, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    group.element_bytes(&group.power_g(&group.random_exponent(&mut rng)))
}

/// `0`, `1`, `p − 1` and `p`: the values either side of `[2, p − 2]`.
/// `1` and `p − 1` are the subgroup of order two — a `g^r = 1` makes
/// every pad predictable, and `PK_0 = p − 1` comes back as the parity of
/// the sender's `r`.
fn out_of_range(group: &DhGroup) -> [Vec<u8>; 4] {
    let (one, p) = (BigUint::from(1u32), group.modulus());
    [BigUint::default(), one.clone(), p - &one, p.clone()].map(|v| group.element_bytes(&v))
}

#[test]
fn malformed_commitments_are_typed_errors() {
    let group = DhGroup::modp_768();
    let good = element(group, 1);
    let [zero, one, minus_one, modulus] = out_of_range(group);
    let mut long = good.clone();
    long.push(1);
    // The commitment as it was before C travelled with g^r: one element.
    let old = receive_against(vec![Frame::encode(KIND_OT12_C, &good)]);
    assert!(matches!(old, Err(OtError::Transport(_))), "{old:?}");
    let (short, empty) = (good[1..].to_vec(), Vec::new());
    for g_r in [&zero, &one, &minus_one, &modulus, &long, &short, &empty] {
        for body in [(good.clone(), g_r.clone()), (g_r.clone(), good.clone())] {
            let got = receive_against(vec![Frame::encode(KIND_OT12_C, &body)]);
            assert!(matches!(got, Err(OtError::Protocol(_))), "{got:?}");
        }
    }
}

#[test]
fn malformed_payloads_are_typed_errors() {
    let group = DhGroup::modp_768();
    let commitment = Frame::encode(KIND_OT12_C, &(element(group, 1), element(group, 2)));
    let pads = (vec![7u8; 32], vec![8u8; 32]);
    // The payload as it was when every transfer carried its own g^r.
    let old = Frame::encode(KIND_OT12_PAYLOAD, &(element(group, 3), pads.clone()));
    let got = receive_against(vec![commitment.clone(), old]);
    assert!(matches!(got, Err(OtError::Protocol(_))), "{got:?}");
    for nonce_len in [0usize, 15, 17] {
        let short = Frame::encode(KIND_OT12_PAYLOAD, &(vec![1u8; nonce_len], pads.clone()));
        let got = receive_against(vec![commitment.clone(), short]);
        assert!(matches!(got, Err(OtError::Protocol(_))), "{got:?}");
    }
    let bare = Frame::encode(KIND_OT12_PAYLOAD, &pads);
    let got = receive_against(vec![commitment, bare]);
    assert!(matches!(got, Err(OtError::Transport(_))), "{got:?}");
}

/// A 2-of-8 transfer of 4-byte messages with every frame of `kind` on
/// its way to the receiver (or, `to_sender`, on its way back) replaced by
/// `body`; returns the verdict of the role that was lied to.
fn verdict_on_forged(
    sel: OtSelect,
    to_sender: bool,
    kind: u16,
    body: &[u8],
) -> Result<Vec<Vec<u8>>, OtError> {
    verdict_on_replaced(sel, to_sender, kind, &Frame::encode(kind, &body.to_vec()))
}

/// [`verdict_on_forged`] with any frame, of any kind, as the forgery.
fn verdict_on_replaced(
    sel: OtSelect,
    to_sender: bool,
    kind: u16,
    forgery: &Frame,
) -> Result<Vec<Vec<u8>>, OtError> {
    let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 4]).collect();
    let (messages, state) = (&messages, &OtBatchState::default());
    let (mut rng_s, mut rng_r) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
    let mut sender = ProtocolEngine::new(|io| async move {
        let sent = ot_send_io(sel, state, &io, &mut rng_s, messages, 2).await;
        sent.map(|()| Vec::new())
    });
    let mut receiver = ProtocolEngine::new(|io| async move {
        ot_receive_io(sel, state, &io, &mut rng_r, 8, &[5, 0]).await
    });
    let forge = |f: Frame| match f.kind == kind {
        true => forgery.clone(),
        false => f,
    };
    match to_sender {
        true => pump_tampered(&mut receiver, &mut sender, forge),
        false => pump_tampered(&mut sender, &mut receiver, forge),
    }
}

fn assert_protocol_error(got: Result<Vec<Vec<u8>>, OtError>, case: &str) {
    assert!(matches!(got, Err(OtError::Protocol(_))), "{case}: {got:?}");
}

#[test]
fn stray_constants_frame_is_a_typed_error() {
    // 0x0200 carried a transfer's constants until they became powers of
    // C. Where the sender expects keys, or the receiver tables, it is a
    // frame of the wrong kind.
    let group = DhGroup::modp_768();
    let sel = NaorPinkasOt::fast_insecure().select();
    let constants: Vec<u8> = (1..=6).flat_map(|seed| element(group, seed)).collect();
    let stray = Frame::encode(KIND_OT1N_CONSTANTS, &constants);
    for (to_sender, awaited) in [(true, KIND_OT1N_KEYS), (false, KIND_OT1N_TABLES)] {
        let got = verdict_on_replaced(sel, to_sender, awaited, &stray);
        let Err(OtError::Transport(TransportError::UnexpectedFrame { expected, got, .. })) = got
        else {
            panic!("a constants frame in place of 0x{awaited:04x}: {got:?}");
        };
        assert_eq!((expected, got), (awaited, KIND_OT1N_CONSTANTS));
    }
}

#[test]
fn malformed_pk0_is_a_typed_error() {
    // The 1-out-of-2 sender, as the IKNP set-up runs it, lied to in its
    // one inbound frame.
    let group = DhGroup::modp_768();
    let good = element(group, 1);
    let verdict = |pk0: &[u8]| {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sender = ProtocolEngine::new(|io| async move {
            let c = commit_c_io(group, &io, &mut rng)?;
            ot12_send_precommitted_io(group, &io, &mut rng, &[1; 32], &[2; 32], 7, &c).await
        });
        while sender.poll_output().is_some() {}
        sender.handle_input(Frame::encode(KIND_OT12_PK0, &pk0.to_vec()));
        while sender.poll_output().is_some() {}
        sender.take_result().expect("the sender reached a verdict")
    };
    for pk0 in out_of_range(group).iter().chain([&good[1..].to_vec()]) {
        let got = verdict(pk0);
        assert!(matches!(got, Err(OtError::Protocol(_))), "{got:?}");
    }
    assert_eq!(verdict(&good), Ok(()), "any element of [2, p − 2] is a key");
}

#[test]
fn malformed_keys_are_typed_errors() {
    let group = DhGroup::modp_768();
    let sel = NaorPinkasOt::fast_insecure().select();
    let good = [element(group, 1), element(group, 2)].concat();
    let len = group.element_len();
    let [zero, one, minus_one, modulus] = out_of_range(group);
    for (case, body) in [
        (
            "half an element over",
            [&good[..], &good[..len / 2]].concat(),
        ),
        ("one byte short", good[..2 * len - 1].to_vec()),
        ("no keys", Vec::new()),
        ("a zero key", [&good[..len], &zero[..]].concat()),
        ("the key 1", [&one[..], &good[len..]].concat()),
        ("the key p − 1", [&good[..len], &minus_one[..]].concat()),
        ("the modulus", [&modulus[..], &good[len..]].concat()),
    ] {
        let got = verdict_on_forged(sel, true, KIND_OT1N_KEYS, &body);
        assert_protocol_error(got, case);
    }
    let honest = verdict_on_forged(sel, true, KIND_OT1N_KEYS, &good);
    assert!(honest.is_ok(), "any two group elements are keys");
}

/// A tables header `k ‖ N ‖ len` followed by `body_len` zero bytes.
fn tables(k: u64, n: u64, msg_len: u64, body_len: usize) -> Vec<u8> {
    let mut blob: Vec<u8> = [k, n, msg_len]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    blob.resize(24 + body_len, 0);
    blob
}

#[test]
fn malformed_tables_are_typed_errors() {
    // The honest frame answers 2 queries over 8 messages of 4 bytes:
    // 24 + 2·(16 + 8·4) bytes.
    let sel = NaorPinkasOt::fast_insecure().select();
    for (case, blob) in [
        ("empty", Vec::new()),
        ("shorter than its header", tables(2, 8, 4, 0)[..23].to_vec()),
        ("no queries", tables(0, 8, 4, 0)),
        ("one query short", tables(1, 8, 4, 48)),
        ("one query over", tables(3, 8, 4, 144)),
        ("another N", tables(2, 9, 4, 104)),
        ("one byte short", tables(2, 8, 4, 95)),
        ("one byte over", tables(2, 8, 4, 97)),
        ("another length", tables(2, 8, 5, 96)),
    ] {
        let got = verdict_on_forged(sel, false, KIND_OT1N_TABLES, &blob);
        assert_protocol_error(got, case);
    }
}

#[test]
fn opening_nothing_is_an_empty_keys_frame_and_a_header_only_table() {
    // k = 0 is a transfer like any other: the sender inverts no z_0.
    let sel = NaorPinkasOt::fast_insecure().select();
    let messages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 4]).collect();
    let (messages, state) = (&messages, &OtBatchState::default());
    let (mut rng_s, mut rng_r) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
    let mut sender = ProtocolEngine::new(|io| async move {
        ot_send_io(sel, state, &io, &mut rng_s, messages, 0).await
    });
    let mut receiver = ProtocolEngine::new(|io| async move {
        ot_receive_io(sel, state, &io, &mut rng_r, 8, &[]).await
    });
    let mut to_receiver = Vec::new();
    let got = pump_tampered(&mut sender, &mut receiver, |f| {
        to_receiver.push(f.clone());
        f
    });
    assert_eq!(got, Ok(Vec::new()));
    assert_eq!(to_receiver.len(), 2, "commitment, tables");
    let header_only = Frame::encode(KIND_OT1N_TABLES, &tables(0, 8, 4, 0));
    assert_eq!(to_receiver[1], header_only);
    assert_eq!(sender.take_result(), Some(Ok(())));
}

#[test]
fn overflowing_table_header_is_a_typed_error() {
    // Header fields whose implied size overflows `usize` in debug builds
    // and wraps to the blob's own length in release: N·len, then the 16
    // bytes of R on top of it, then k tables of that.
    let np = NaorPinkasOt::fast_insecure().select();
    for (msg_len, wrapped_body) in [
        (1u64 << 61, 2 * 16),
        (u64::MAX / 8, 2 * 8),
        (1 << 60, 2 * 16),
    ] {
        let got = verdict_on_forged(
            np,
            false,
            KIND_OT1N_TABLES,
            &tables(2, 8, msg_len, wrapped_body),
        );
        assert_protocol_error(got, &format!("{np:?}, length {msg_len}"));
    }
    // The extension engine's per-query table is `N ‖ len ‖ ciphertexts`.
    let iknp = IknpOt::fast_insecure().select();
    let got = verdict_on_forged(iknp, false, KIND_KNX_TABLE, &tables(8, 1 << 61, 0, 0)[..16]);
    assert_protocol_error(got, &format!("{iknp:?}"));
}

/// The list the list tests run: a 2-of-8 and a 3-of-26 transfer of
/// 4-byte messages, in one exchange.
const KS: [usize; 2] = [2, 3];
const NS: [usize; 2] = [8, 26];

/// The three engines, each over the test group.
fn engines() -> [OtSelect; 3] {
    [
        NaorPinkasOt::fast_insecure().select(),
        IknpOt::fast_insecure().select(),
        TrustedSimOt::new().select(),
    ]
}

/// Both roles' verdicts, `None` for a role left waiting on a peer that
/// gave up (a closed connection, on a real transport).
type Verdicts = (
    Option<Result<(), OtError>>,
    Option<Result<Vec<Vec<u8>>, OtError>>,
);

/// An honest sender of the [`KS`]-of-[`NS`] list against a receiver
/// opening `opened`, with the body of every frame of `kind` on its way to
/// the receiver (or, `to_sender`, back) rewritten by `tamper`.
fn run_list(
    sel: OtSelect,
    opened: [&[usize]; 2],
    to_sender: bool,
    kind: u16,
    tamper: impl Fn(Vec<u8>) -> Vec<u8>,
) -> Verdicts {
    let messages: Vec<Vec<Vec<u8>>> = NS
        .iter()
        .map(|&n| (0..n).map(|i| vec![i as u8; 4]).collect())
        .collect();
    let sent = [(&messages[0][..], KS[0]), (&messages[1][..], KS[1])];
    let asked = [(NS[0], opened[0]), (NS[1], opened[1])];
    let (sent, asked, state) = (&sent, &asked, &OtBatchState::default());
    let (mut rng_s, mut rng_r) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
    let mut sender = ProtocolEngine::new(|io| async move {
        ot_send_list_io(sel, state, &io, &mut rng_s, sent).await
    });
    let mut receiver = ProtocolEngine::new(|io| async move {
        ot_receive_list_io(sel, state, &io, &mut rng_r, asked).await
    });
    let forge =
        |f: &Frame, towards_sender: bool| match towards_sender == to_sender && f.kind == kind {
            true => Frame::encode(kind, &tamper(f.decode_as::<Vec<u8>>(kind).expect("a blob"))),
            false => f.clone(),
        };
    loop {
        let mut progressed = false;
        while let Some(out) = sender.poll_output() {
            progressed = true;
            out.frames()
                .iter()
                .for_each(|f| receiver.handle_input(forge(f, false)));
        }
        while let Some(out) = receiver.poll_output() {
            progressed = true;
            out.frames()
                .iter()
                .for_each(|f| sender.handle_input(forge(f, true)));
        }
        if !progressed {
            return (sender.take_result(), receiver.take_result());
        }
    }
}

/// No panic, no opened message, and no role waiting on a peer that is
/// still waiting too: some role ends in a typed error — or the receiver,
/// having asked for nothing, ends with nothing.
fn assert_refused((sent, received): Verdicts, case: &str) {
    let failed = matches!(sent, Some(Err(_))) || matches!(received, Some(Err(_)));
    assert!(
        failed || received == Some(Ok(Vec::new())),
        "{case}: {sent:?}, {received:?}"
    );
}

#[test]
fn honest_list_opens_every_transfers_own_messages() {
    for sel in engines() {
        let (sent, received) = run_list(sel, [&[5, 0], &[25, 8, 3]], false, 0, |b| b);
        sent.expect("the sender finished").expect("sent");
        let got = received.expect("the receiver finished").expect("received");
        let want: Vec<Vec<u8>> = [5u8, 0, 25, 8, 3].iter().map(|&i| vec![i; 4]).collect();
        assert_eq!(got, want, "{sel:?}");
    }
}

#[test]
fn opening_another_k_in_a_list_is_a_typed_error() {
    for sel in engines() {
        for opened in [
            [&[5usize, 0, 1][..], &[25, 8, 3][..]],
            [&[5], &[25, 8, 3]],
            [&[5, 0], &[25, 8, 3, 2]],
            [&[5, 0], &[25, 8]],
            [&[], &[]],
        ] {
            let case = format!("{sel:?} opening {opened:?}");
            assert_refused(run_list(sel, opened, false, 0, |b| b), &case);
        }
    }
}

#[test]
fn an_index_from_another_transfers_range_is_a_typed_error() {
    // 20 is a position of the 26-message transfer, not of the 8-message
    // one: the receiver refuses to ask for it, before any frame.
    for sel in engines() {
        let (sent, received) = run_list(sel, [&[20, 0], &[25, 8, 3]], false, 0, |b| b);
        let want = OtError::InvalidIndex {
            index: 20,
            num_messages: 8,
        };
        assert_eq!(received, Some(Err(want)), "{sel:?}");
        assert_eq!(sent, None, "{sel:?}: the sender heard nothing");
    }
    // The ideal functionality's sender is the one that sees indices: it
    // refuses a forged one in the first transfer's place.
    let sim = TrustedSimOt::new().select();
    let forged = |blob: Vec<u8>| [&20u64.to_le_bytes()[..], &blob[8..]].concat();
    let (sent, _) = run_list(sim, [&[5, 0], &[25, 8, 3]], true, KIND_SIM_INDICES, forged);
    let want = OtError::InvalidIndex {
        index: 20,
        num_messages: 8,
    };
    assert_eq!(sent, Some(Err(want)));
}

#[test]
fn malformed_list_headers_are_typed_errors() {
    let honest: [&[usize]; 2] = [&[5, 0], &[25, 8, 3]];
    // Naor–Pinkas: one tables frame, a `k ‖ N ‖ len` header per
    // transfer. The first section is 24 + 2·(16 + 8·4) = 120 bytes.
    let np = NaorPinkasOt::fast_insecure().select();
    let second = |header: Vec<u8>| move |blob: Vec<u8>| [&blob[..120], &header[..]].concat();
    for (case, section) in [
        (
            "a truncated second header",
            tables(3, 26, 4, 0)[..20].to_vec(),
        ),
        ("a second header and no tables", tables(3, 26, 4, 0)),
        (
            "a second section one byte short",
            tables(3, 26, 4, 3 * 120 - 1),
        ),
        ("a second section claiming more", tables(4, 26, 4, 3 * 120)),
        (
            "an overflowing second header",
            tables(3, 26, 1 << 61, 3 * 16),
        ),
        ("another N in the second header", tables(3, 8, 4, 3 * 48)),
    ] {
        let verdicts = run_list(np, honest, false, KIND_OT1N_TABLES, second(section));
        assert_refused(verdicts, case);
    }
    let trailing = |blob: Vec<u8>| [blob, vec![0]].concat();
    assert_refused(
        run_list(np, honest, false, KIND_OT1N_TABLES, trailing),
        "a byte after the last section",
    );
    let first_only = |blob: Vec<u8>| blob[..120].to_vec();
    assert_refused(
        run_list(np, honest, false, KIND_OT1N_TABLES, first_only),
        "the first section alone",
    );
    // The extension engine: one `N ‖ len` table per query of the list.
    let iknp = IknpOt::fast_insecure().select();
    let table = |n: u64, len: u64, body: usize| {
        [&n.to_le_bytes()[..], &len.to_le_bytes(), &vec![0; body]].concat()
    };
    for (case, table) in [
        ("a truncated header", table(26, 4, 0)[..12].to_vec()),
        ("a table claiming more", table(26, 4, 26 * 4 - 1)),
        ("an overflowing header", table(1 << 61, 4, 32)),
        ("the first transfer's N for all", table(8, 4, 32)),
    ] {
        let verdicts = run_list(iknp, honest, false, KIND_KNX_TABLE, |_| table.clone());
        assert_refused(verdicts, case);
    }
    // The ideal functionality: indices are 8-byte words, messages one
    // length across the list.
    let sim = TrustedSimOt::new().select();
    let ragged = |blob: Vec<u8>| blob[..blob.len() - 1].to_vec();
    assert_refused(
        run_list(sim, honest, true, KIND_SIM_INDICES, ragged),
        "a ragged index blob",
    );
    assert_refused(
        run_list(sim, honest, false, KIND_SIM_MESSAGES, ragged),
        "a ragged message blob",
    );
}

fn ot_frame() -> impl Strategy<Value = Frame> {
    let kinds = prop::sample::select(vec![
        KIND_OT12_C,
        KIND_OT12_PK0,
        KIND_OT12_PAYLOAD,
        KIND_OT1N_CONSTANTS,
        KIND_OT1N_KEYS,
        KIND_OT1N_TABLES,
    ]);
    // 96 bytes is the element length of the test group.
    let bytes = || prop::collection::vec(any::<u8>(), 0..120);
    (kinds, 0u8..5, bytes(), bytes(), bytes()).prop_map(|(kind, shape, a, b, c)| match shape {
        // Byte soup, then bodies in the shapes the roles decode.
        0 => Frame {
            kind,
            payload: a.into(),
        },
        1 => Frame::encode(kind, &(a, b)),
        2 => Frame::encode(kind, &(a, (b, c))),
        // Up to three whole elements: constants or keys.
        3 => {
            let soup = a.iter().chain(&b).chain(&c).copied().cycle();
            Frame::encode(kind, &soup.take(96 * (a.len() % 4)).collect::<Vec<u8>>())
        }
        // A list's tables: two `k ‖ N ‖ len` sections of small counts,
        // each with the body its header implies or one byte off it.
        _ => {
            let section = |x: &[u8]| {
                let (k, n, len) = (x.len() % 4, x.len() % 9, x.len() % 5);
                let body = (k * (16 + n * len) + x.len() % 3).saturating_sub(1);
                tables(k as u64, n as u64, len as u64, body)
            };
            Frame::encode(kind, &[section(&a), section(&b)].concat())
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary frames of the OT's own kinds, fed to either role of a
    /// Naor–Pinkas transfer or transfer list, never panic it and never
    /// hand the receiver a result (the sender is done once it has
    /// answered any keys of the right count).
    #[test]
    fn naor_pinkas_roles_survive_arbitrary_frames(
        frames in prop::collection::vec(ot_frame(), 1..5),
        sender_role in any::<bool>(),
        list in any::<bool>(),
    ) {
        let sel = NaorPinkasOt::fast_insecure().select();
        let messages: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let state = OtBatchState::default();
        // One transfer, or a list of two: 2-of-4 and 1-of-4.
        let sent: &[(&[Vec<u8>], usize)] = match list {
            true => &[(&messages, 2), (&messages, 1)],
            false => &[(&messages, 2)],
        };
        let opened: &[(usize, &[usize])] = match list {
            true => &[(4, &[3, 0]), (4, &[1])],
            false => &[(4, &[3, 0])],
        };
        let mut engine = ProtocolEngine::new(|io| async move {
            match sender_role {
                true => ot_send_list_io(sel, &state, &io, &mut rng, sent).await.map(|()| Vec::new()),
                false => ot_receive_list_io(sel, &state, &io, &mut rng, opened).await,
            }
        });
        for frame in frames {
            while engine.poll_output().is_some() {}
            if engine.is_done() {
                break;
            }
            engine.handle_input(frame);
        }
        while engine.poll_output().is_some() {}
        if let Some(result) = engine.take_result() {
            prop_assert!(sender_role || result.is_err(), "garbage frames must not open a message");
        }
    }
}
