//! ILUT on the paper's subdomain matrices must reproduce the reference
//! elimination bit for bit: the owned blocks of TC1 (17 × 17 grid) and
//! TC6 (tiny elasticity) under the paper's two-rank partition.

#[path = "../crates/krylov/src/ilut_reference.rs"]
mod ilut_reference;

use ilut_reference::{factor_mismatch, ilut_reference};
use parapre::core::cases::{build_case, build_case_sized, AssembledCase, CaseId, CaseSize};
use parapre::core::runner::{partition_case, RunConfig};
use parapre::core::PrecondKind;
use parapre::dist::DistMatrix;
use parapre::krylov::{Ilut, IlutConfig};

fn check_owned_blocks(case: &AssembledCase, name: &str) {
    let p = 2;
    let cfg = RunConfig::paper(PrecondKind::Block2, p);
    let owner = case.dof_owner(&partition_case(case, &cfg).owner);
    for rank in 0..p {
        let block = DistMatrix::from_global(&case.sys.a, &owner, rank, p).owned_block();
        for ilut in [
            cfg.ilut,
            IlutConfig::default(),
            IlutConfig {
                drop_tol: 0.0,
                fill: 10,
            },
        ] {
            let f = Ilut::factor(&block, &ilut).expect("owned block factors");
            let (want, want_fixes) = ilut_reference(&block, ilut.drop_tol, ilut.fill);
            let diff = factor_mismatch((f.merged(), f.pivot_fixes()), (&want, want_fixes));
            assert!(diff.is_none(), "{name} rank {rank} {ilut:?}: {diff:?}");
        }
    }
}

#[test]
fn ilut_matches_reference_on_tc1_owned_blocks() {
    check_owned_blocks(&build_case_sized(CaseId::Tc1, 17), "TC1");
}

#[test]
fn ilut_matches_reference_on_tc6_owned_blocks() {
    check_owned_blocks(&build_case(CaseId::Tc6, CaseSize::Tiny), "TC6");
}
