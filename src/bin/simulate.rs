//! `simulate` — run one custom multi-tenant GPU simulation from the
//! command line.
//!
//! ```text
//! simulate --apps GUPS,MM [--policy dws] [--sms 30] [--warps 24]
//!          [--budget 6000] [--tlb 1024] [--walkers 16] [--pages 64k]
//!          [--seed 42] [--json]
//!
//! policies: baseline baseline2x stlb stlbptw static dws dws++ dws++cons
//!           dws++aggr mask mask+dws
//! ```

use std::process::ExitCode;

use walksteal::multitenant::{GpuConfig, PolicyPreset, SimulationBuilder};
use walksteal::vm::PageSize;
use walksteal::workloads::AppId;

fn usage() -> &'static str {
    "usage: simulate --apps A,B[,C...] [--policy P] [--sms N] [--warps N] \
     [--budget N] [--tlb ENTRIES] [--walkers N] [--pages 4k|64k] [--seed N] [--json]\n\
     apps:     MM HS RAY FFT LPS JPEG LIB SRAD 3DS BLK QTC SAD GUPS\n\
     policies: baseline baseline2x stlb stlbptw static dws dws++ dws++cons \
     dws++aggr mask mask+dws"
}

fn parse_app(name: &str) -> Option<AppId> {
    AppId::from_name(name)
}

fn main() -> ExitCode {
    let mut apps: Vec<AppId> = Vec::new();
    let mut policy = PolicyPreset::Baseline;
    let mut cfg = GpuConfig::default();
    let mut seed = 42u64;
    let mut json = false;

    let mut args = std::env::args().skip(1);
    macro_rules! next_value {
        ($flag:expr) => {
            match args.next() {
                Some(v) => v,
                None => {
                    eprintln!("{} needs a value\n{}", $flag, usage());
                    return ExitCode::FAILURE;
                }
            }
        };
    }
    macro_rules! parse_or_fail {
        ($s:expr, $what:expr) => {
            match $s.parse() {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("invalid {}: {}\n{}", $what, $s, usage());
                    return ExitCode::FAILURE;
                }
            }
        };
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--apps" => {
                let list = next_value!("--apps");
                for name in list.split(',') {
                    match parse_app(name.trim()) {
                        Some(a) => apps.push(a),
                        None => {
                            eprintln!("unknown app {name}\n{}", usage());
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            "--policy" => {
                let p = next_value!("--policy");
                match p.parse::<PolicyPreset>() {
                    Ok(v) => policy = v,
                    Err(e) => {
                        eprintln!("{e}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--sms" => {
                let v = next_value!("--sms");
                cfg = cfg.with_n_sms(parse_or_fail!(v, "SM count"));
            }
            "--warps" => {
                let v = next_value!("--warps");
                cfg = cfg.with_warps_per_sm(parse_or_fail!(v, "warp count"));
            }
            "--budget" => {
                let v = next_value!("--budget");
                cfg = cfg.with_instructions_per_warp(parse_or_fail!(v, "budget"));
            }
            "--tlb" => {
                let v = next_value!("--tlb");
                cfg = cfg.with_l2_tlb_entries(parse_or_fail!(v, "TLB entries"));
            }
            "--walkers" => {
                let v = next_value!("--walkers");
                cfg = cfg.with_walkers(parse_or_fail!(v, "walker count"));
            }
            "--pages" => {
                let v = next_value!("--pages");
                cfg = match v.to_ascii_lowercase().as_str() {
                    "4k" => cfg.with_page_size(PageSize::Small4K),
                    "64k" => cfg.with_page_size(PageSize::Large64K),
                    other => {
                        eprintln!("unknown page size {other} (4k or 64k)");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--seed" => {
                let v = next_value!("--seed");
                seed = parse_or_fail!(v, "seed");
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    if apps.is_empty() {
        eprintln!("--apps is required\n{}", usage());
        return ExitCode::FAILURE;
    }
    // The builder applies the tenant count before the preset: S-(TLB+PTW)
    // multiplies walker/queue resources by the tenant count at preset time.
    // A machine that cannot host the tenants (SMs or walkers that do not
    // split evenly, too many tenants) is a usage error, not a panic.
    let result = match SimulationBuilder::new()
        .config(cfg)
        .preset(policy)
        .tenants(apps)
        .seed(seed)
        .run()
    {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", result.to_json().pretty());
        return ExitCode::SUCCESS;
    }

    println!(
        "policy {} | {} tenants | {} cycles | total IPC {:.3}\n",
        policy.label(),
        result.tenants.len(),
        result.cycles,
        result.total_ipc()
    );
    println!(
        "{:<6} {:>8} {:>6} {:>9} {:>10} {:>11} {:>8} {:>8} {:>8}",
        "app", "IPC", "execs", "MPMI", "walk lat", "interleave", "stolen%", "PW shr", "TLB shr"
    );
    for t in &result.tenants {
        println!(
            "{:<6} {:>8.3} {:>6} {:>9.1} {:>10.0} {:>11.2} {:>8.1} {:>8.2} {:>8.2}",
            t.app.name(),
            t.ipc,
            t.completed_executions,
            t.mpmi,
            t.mean_walk_latency,
            t.mean_interleave,
            t.stolen_fraction * 100.0,
            t.pw_share,
            t.tlb_share,
        );
    }
    ExitCode::SUCCESS
}
