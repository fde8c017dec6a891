//! `live_codec`: the real H.264 encoder at 176×144 on a 6-Atom-Container
//! fabric (the Fig. 12 6-Atom configuration), one thread, null sink.
//!
//! Each macroblock is encoded with `encode_macroblock_into` and its SI
//! stream dispatched through `RisppManager::execute_si` and `advance_to`,
//! as the program's own live codec runner does; one forecast block
//! announces each frame's SI counts.

use std::cell::RefCell;
use std::rc::Rc;

use rispp_core::forecast::ForecastValue;
use rispp_h264::block::{Frame, Plane};
use rispp_h264::encoder::{
    encode_macroblock_into, EncoderConfig, SiInvocationCounts, HW_DISPATCH_OVERHEAD,
    PLAIN_CYCLES_PER_MB,
};
use rispp_h264::entropy::BitWriter;
use rispp_h264::si_library::{build_library, H264Sis};
use rispp_h264::video::SyntheticVideo;
use rispp_obs::SinkHandle;
use rispp_rt::manager::RisppManager;
use rispp_sim::{h264_fabric, Scenario, ShardSpec, SinkSpec};

use crate::harness::{Checks, CountingSink, LayerCounts, RepOutput, Workload};
use crate::stress::count_fabric_events;
use crate::trace::{Name, Tracer};

/// The paper's Fig. 12 bar for the 6-Atom configuration, cycles/MB.
pub const FIG12_SIX_ATOM_CYCLES_PER_MB: f64 = 58_287.0;

pub struct LiveCodec {
    pub seed: u64,
    pub width: usize,
    pub height: usize,
    pub frames: usize,
    pub containers: usize,
}

pub struct CodecInput {
    mgr: RisppManager,
    sis: H264Sis,
    /// The first frame, coded as the reference of the second.
    first: Frame,
    frames: Vec<Frame>,
    forecasts: Vec<Vec<ForecastValue>>,
}

impl LiveCodec {
    fn mbs(&self) -> usize {
        (self.width / 16) * (self.height / 16)
    }

    fn scenario(&self, containers: usize) -> Scenario {
        Scenario::LiveCodec {
            width: self.width,
            height: self.height,
            frames: self.frames,
            containers,
        }
    }

    fn build(&self, sink: Option<SinkHandle>) -> CodecInput {
        let (lib, sis) = build_library();
        let mut builder =
            RisppManager::builder(lib, h264_fabric(self.containers)).deterministic_timing(true);
        if let Some(sink) = sink {
            builder = builder.sink(sink);
        }
        let mgr = builder.build();
        let mut video = SyntheticVideo::new(self.width, self.height, self.seed);
        let first = video.next_frame();
        let frames = (0..self.frames).map(|_| video.next_frame()).collect();
        // One forecast block per frame, with the frame's exact SI counts.
        let per_mb = SiInvocationCounts::per_macroblock();
        let mbs = self.mbs() as u64;
        let block: Vec<ForecastValue> = [
            (sis.satd_4x4, per_mb.satd_4x4),
            (sis.dct_4x4, per_mb.dct_4x4),
            (sis.ht_4x4, per_mb.ht_4x4),
            (sis.ht_2x2, per_mb.ht_2x2),
        ]
        .into_iter()
        .map(|(si, n)| ForecastValue::new(si, 1.0, 300_000.0, (n * mbs) as f64))
        .collect();
        CodecInput {
            mgr,
            sis,
            first,
            frames,
            forecasts: vec![block; self.frames],
        }
    }
}

impl Workload for LiveCodec {
    type Input = CodecInput;
    const SINGLE_THREADED: bool = true;

    fn setup(&self) -> CodecInput {
        self.build(None)
    }

    fn run(&self, input: &mut CodecInput, tr: &mut Tracer, _: &mut Checks) -> RepOutput {
        let config = EncoderConfig::default();
        let CodecInput {
            mgr,
            sis,
            first,
            frames,
            forecasts,
        } = input;
        let mut out = RepOutput::default();
        let mut counts = LayerCounts::default();
        let (mut bits, mut psnr_sum, mut after_first_frame) = (0u64, 0.0f64, 0u64);
        let mut key = 0u32;
        // Each frame is predicted from the previous frame's reconstruction.
        let mut reference = first.clone();
        for (f, current) in frames.iter().enumerate() {
            let block = std::mem::take(&mut forecasts[f]);
            tr.span(Name::RtForecast, f as u32, || mgr.forecast_block(0, block));
            let mut recon = Plane::filled(self.width, self.height, 128);
            let mut writer = BitWriter::new();
            let mut sse = 0u64;
            for my in 0..self.height / 16 {
                for mx in 0..self.width / 16 {
                    let r = tr.span(Name::H264EncodeMb, key, || {
                        encode_macroblock_into(
                            &mut writer,
                            current,
                            &reference,
                            &mut recon,
                            mx,
                            my,
                            &config,
                        )
                    });
                    sse += r.luma_sse;
                    bits += r.bits as u64;
                    for (si, n) in [
                        (sis.satd_4x4, r.counts.satd_4x4),
                        (sis.dct_4x4, r.counts.dct_4x4),
                        (sis.ht_4x4, r.counts.ht_4x4),
                        (sis.ht_2x2, r.counts.ht_2x2),
                        (sis.sad_4x4, r.counts.sad_4x4),
                    ] {
                        for _ in 0..n {
                            let rec = tr.span(Name::RtExecuteSi, key, || mgr.execute_si(0, si));
                            out.executions += 1;
                            out.hw_executions += u64::from(rec.hardware);
                            let t = mgr.now()
                                + rec.cycles
                                + if rec.hardware {
                                    HW_DISPATCH_OVERHEAD
                                } else {
                                    0
                                };
                            let events = tr
                                .span(Name::RtAdvance, key, || mgr.advance_to(t))
                                .expect("monotone time");
                            count_fabric_events(&events, &mut counts);
                        }
                    }
                    // The macroblock's plain (non-SI) code.
                    let t = mgr.now() + PLAIN_CYCLES_PER_MB;
                    let events = tr
                        .span(Name::RtAdvance, key, || mgr.advance_to(t))
                        .expect("monotone time");
                    count_fabric_events(&events, &mut counts);
                    key += 1;
                }
            }
            let mse = sse as f64 / (self.width * self.height) as f64;
            psnr_sum += if mse > 0.0 {
                10.0 * (255.0f64 * 255.0 / mse).log10()
            } else {
                99.0
            };
            if f == 0 {
                after_first_frame = mgr.now();
            }
            reference = current.clone();
            reference.y = recon;
        }
        let mbs = self.mbs() as u64;
        out.ops = mbs * frames.len() as u64;
        out.sim_cycles = mgr.now();
        if frames.len() > 1 {
            let settled_mbs = (mbs * (frames.len() as u64 - 1)) as f64;
            out.cycles_per_mb = Some((out.sim_cycles - after_first_frame) as f64 / settled_mbs);
        }
        counts.reselects = mgr.reselects();
        let (hits, misses, _) = mgr.selection_cache_stats();
        counts.cache_hits = hits;
        counts.cache_misses = misses;
        out.counts = counts;
        let mean_psnr = psnr_sum / frames.len() as f64;
        out.fingerprint = vec![
            ("sim_cycles", out.sim_cycles),
            ("executions", out.executions),
            ("hw_executions", out.hw_executions),
            ("bits", bits),
            ("mean_psnr_bits", mean_psnr.to_bits()),
            ("rotations", counts.rotations),
        ];
        out
    }

    fn reference(&self, checks: &mut Checks) -> Vec<(&'static str, u64)> {
        let counting = Rc::new(RefCell::new(CountingSink::default()));
        let mut input = self.build(Some(SinkHandle::shared(counting.clone())));
        let mine = self.run(&mut input, &mut Tracer::off(), checks);
        drop(input);
        let events = counting.borrow().events;
        let value = |name: &str| {
            mine.fingerprint
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .expect("fingerprint field")
        };

        // The program's own live-codec path, same seed and size.
        let spec = ShardSpec::new(self.scenario(self.containers), self.seed).run();
        let codec = spec.codec.expect("codec outcome");
        let counters = spec.counters.expect("metrics sinks attached");
        let lib_len = build_library().0.len();
        let spec_hw: u64 = (0..lib_len)
            .map(|i| counters.si(rispp_core::si::SiId(i)).hw_executions)
            .sum();
        checks.expect_eq("live_codec events vs ShardSpec::run", events, spec.events);
        checks.expect_eq(
            "live_codec sim_cycles vs ShardSpec::run",
            mine.sim_cycles,
            spec.sim_cycles,
        );
        checks.expect_eq(
            "live_codec hw executions vs ShardSpec::run",
            mine.hw_executions,
            spec_hw,
        );

        // Pixels never depend on the fabric: a 0-container run over the
        // same frames must code the same bits at the same PSNR.
        let software = ShardSpec::new(self.scenario(0), self.seed)
            .with_sink(SinkSpec::Null)
            .run()
            .codec
            .expect("codec outcome");
        checks.expect_eq(
            "live_codec bits vs 0-container run",
            value("bits"),
            software.total_bits as u64,
        );
        checks.expect_eq(
            "live_codec PSNR vs 0-container run",
            value("mean_psnr_bits"),
            software.mean_psnr.to_bits(),
        );
        checks.expect_eq(
            "live_codec bits vs ShardSpec::run",
            value("bits"),
            codec.total_bits as u64,
        );
        mine.fingerprint
    }
}
