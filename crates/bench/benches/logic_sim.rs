//! Digital-substrate kernels: levelized 3-valued simulation, the SoA
//! packed core at 64 and 512 patterns per sweep, and event-driven timing
//! simulation.

use obd_atpg::rng::XorShift64Star;
use obd_bench::timing::{bench, header};
use obd_logic::circuits::ripple_carry_adder;
use obd_logic::sim::simulate_with_order;
use obd_logic::soa::SoaNetlist;
use obd_logic::timing::{timing_simulate, DelayModel, InputEvent};
use obd_logic::value::Lv;
use obd_logic::wide::{LaneWord, WideBlock};

fn main() {
    let nl = ripple_carry_adder(16);
    let order = nl.levelize().expect("acyclic");
    let soa = SoaNetlist::compile(&nl).expect("acyclic");
    let n = nl.inputs().len();
    let mut rng = XorShift64Star::seed_from_u64(7);
    let vector: Vec<Lv> = (0..n).map(|_| Lv::from_bool(rng.gen_bool())).collect();
    let block_vectors: Vec<Vec<Lv>> = (0..64)
        .map(|_| (0..n).map(|_| Lv::from_bool(rng.gen_bool())).collect())
        .collect();
    let block: WideBlock<1> = WideBlock::pack(&block_vectors).unwrap();
    let mut block_words: Vec<LaneWord<1>> = Vec::new();
    let wide_vectors: Vec<Vec<Lv>> = (0..512)
        .map(|_| (0..n).map(|_| Lv::from_bool(rng.gen_bool())).collect())
        .collect();
    let wide: WideBlock<8> = WideBlock::pack(&wide_vectors).unwrap();
    let mut wide_words: Vec<LaneWord<8>> = Vec::new();

    header("logic_sim");
    bench("scalar_rca16", || {
        simulate_with_order(&nl, &order, &vector).expect("sim")
    });
    bench("soa64_rca16", || {
        soa.simulate_wide_into(&block, &mut block_words)
            .expect("sim")
    });
    bench("soa512_rca16", || {
        soa.simulate_wide_into(&wide, &mut wide_words).expect("sim")
    });

    let delays = DelayModel::uniform(100.0, 110.0);
    let initial = vec![Lv::Zero; n];
    let events: Vec<InputEvent> = nl
        .inputs()
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, &net)| InputEvent {
            net,
            time_ps: 100.0 * (i as f64 + 1.0),
            value: Lv::One,
        })
        .collect();
    bench("timing_rca16_8_events", || {
        timing_simulate(&nl, &delays, &initial, &events).expect("timing")
    });
}
