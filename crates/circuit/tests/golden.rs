//! Golden pins of the simulator's exact floating-point output.
//!
//! Each test folds the `to_bits` of every value an analysis produces into an
//! FNV-1a hash and compares it with a recorded constant. Any change to the
//! order or the rounding of an assembly, elimination or Newton step shows up
//! here, so a performance change to the simulator must leave these hashes
//! untouched.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stc_circuit::devices::opamp::{OpAmp, OpAmpParams};
use stc_circuit::variation::VariationModel;
use stc_circuit::{
    ac_analysis, dc_operating_point, log_frequency_sweep, transient_analysis, Circuit,
    CircuitError, SourceWaveform, TransientParams, TransientResult,
};

/// 64-bit FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }
}

/// Hashes every node voltage and branch current at every time point.
fn transient_hash(circuit: &Circuit, result: &TransientResult) -> u64 {
    let mut hash = Fnv::new();
    for index in 0..result.len() {
        hash.f64(result.times()[index]);
        for node in 1..circuit.node_count() {
            hash.f64(result.voltage(stc_circuit::NodeId(node), index));
        }
        for element in 0..circuit.elements().len() {
            if let Some(current) = result.branch_current(element, index) {
                hash.f64(current);
            }
        }
    }
    hash.0
}

#[test]
fn opamp_measurements_are_bit_identical() {
    let model = VariationModel::paper_default();
    let mut rng = StdRng::seed_from_u64(2005);
    let mut hash = Fnv::new();
    let mut failures = 0;
    for _ in 0..64 {
        let params = model.perturb_opamp(&OpAmpParams::nominal(), &mut rng);
        match OpAmp::new(params).measure() {
            Ok(measurements) => measurements.to_vec().into_iter().for_each(|v| hash.f64(v)),
            Err(error) => {
                failures += 1;
                hash.bytes(format!("{error:?}").as_bytes());
            }
        }
    }
    assert_eq!(failures, 0);
    assert_eq!(hash.0, 0x39b2_5271_5de3_60e3, "op-amp hash {:#018x}", hash.0);
}

#[test]
fn rc_transient_is_bit_identical() {
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let vout = c.node("vout");
    c.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::step(0.0, 1.0, 0.0)).unwrap();
    c.resistor("R1", vin, vout, 1_000.0).unwrap();
    c.capacitor("C1", vout, Circuit::ground(), 1e-6).unwrap();
    let result = transient_analysis(&c, &TransientParams::new(5e-3, 2e-6)).unwrap();
    assert_eq!(result.len(), 2501);
    let hash = transient_hash(&c, &result);
    assert_eq!(hash, 0x647e_5780_0aeb_d42a, "RC hash {hash:#018x}");
}

#[test]
fn rlc_transient_is_bit_identical() {
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let mid = c.node("mid");
    let vout = c.node("vout");
    c.voltage_source("V1", vin, Circuit::ground(), SourceWaveform::step(0.0, 1.0, 0.0)).unwrap();
    c.resistor("R1", vin, mid, 10.0).unwrap();
    c.inductor("L1", mid, vout, 1e-3).unwrap();
    c.capacitor("C1", vout, Circuit::ground(), 1e-6).unwrap();
    let result = transient_analysis(&c, &TransientParams::new(3e-3, 1e-6)).unwrap();
    assert_eq!(result.len(), 3001);
    let hash = transient_hash(&c, &result);
    assert_eq!(hash, 0xaf35_d75c_2030_b367, "RLC hash {hash:#018x}");
}

#[test]
fn ac_sweep_is_bit_identical() {
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let mid = c.node("mid");
    let vout = c.node("vout");
    c.ac_voltage_source("V1", vin, Circuit::ground(), SourceWaveform::dc(0.0), 1.0).unwrap();
    c.resistor("R1", vin, mid, 10.0).unwrap();
    c.inductor("L1", mid, vout, 1e-3).unwrap();
    c.capacitor("C1", vout, Circuit::ground(), 1e-6).unwrap();
    let op = dc_operating_point(&c).unwrap();
    let sweep = ac_analysis(&c, &op, &log_frequency_sweep(100.0, 100_000.0, 201)).unwrap();
    let mut hash = Fnv::new();
    for index in 0..sweep.len() {
        hash.f64(sweep.frequencies()[index]);
        for node in [vin, mid, vout] {
            let phasor = sweep.phasor(node, index);
            hash.f64(phasor.re);
            hash.f64(phasor.im);
        }
    }
    assert_eq!(hash.0, 0x8500_9360_e0d8_89cb, "AC hash {:#018x}", hash.0);
}

#[test]
fn parallel_sources_report_the_same_singular_pivot() {
    let mut c = Circuit::new();
    let a = c.node("a");
    c.voltage_source("V1", a, Circuit::ground(), SourceWaveform::dc(1.0)).unwrap();
    c.voltage_source("V2", a, Circuit::ground(), SourceWaveform::dc(2.0)).unwrap();
    assert_eq!(dc_operating_point(&c).unwrap_err(), CircuitError::SingularMatrix { pivot: 2 });
}
