open Revizor_isa
open Revizor_uarch

type t = {
  name : string;
  uarch : Uarch_config.t;
  subsets : Catalog.subset list;
  threat : Attack.threat;
  mem_pages : int;
}

let skylake_unpatched = Uarch_config.skylake ~v4_patch:false
let skylake_patched = Uarch_config.skylake ~v4_patch:true

let target1 =
  {
    name = "Target 1";
    uarch = skylake_unpatched;
    subsets = [ Catalog.AR ];
    threat = Attack.prime_probe;
    mem_pages = 1;
  }

let target2 = { target1 with name = "Target 2"; subsets = [ Catalog.AR; Catalog.MEM ] }

let target3 =
  { target2 with name = "Target 3"; subsets = [ Catalog.AR; Catalog.MEM; Catalog.VAR ] }

let target4 = { target3 with name = "Target 4"; uarch = skylake_patched }

let target5 =
  {
    name = "Target 5";
    uarch = skylake_patched;
    subsets = [ Catalog.AR; Catalog.MEM; Catalog.CB ];
    threat = Attack.prime_probe;
    mem_pages = 1;
  }

let target6 =
  {
    target5 with
    name = "Target 6";
    subsets = [ Catalog.AR; Catalog.MEM; Catalog.CB; Catalog.VAR ];
  }

let target7 =
  {
    name = "Target 7";
    uarch = skylake_patched;
    subsets = [ Catalog.AR; Catalog.MEM ];
    threat = Attack.prime_probe_assist;
    mem_pages = 2;
  }

let target8 = { target7 with name = "Target 8"; uarch = Uarch_config.coffee_lake }

let all =
  [ target1; target2; target3; target4; target5; target6; target7; target8 ]

let find name =
  List.find_opt (fun t -> String.lowercase_ascii t.name = String.lowercase_ascii name) all

let fuzzer_config ?seed ?(n_inputs = 50) contract target =
  let executor = Executor.default_config ~threat:target.threat () in
  let base = Fuzzer.default_config ?seed contract target.uarch executor in
  {
    base with
    Fuzzer.gen_cfg =
      {
        Generator.default_cfg with
        Generator.subsets = target.subsets;
        mem_pages = target.mem_pages;
      };
    n_inputs;
  }

let pp fmt t =
  Format.fprintf fmt "%s: %s, ISA=%s, %s" t.name t.uarch.Uarch_config.name
    (String.concat "+" (List.map Catalog.subset_to_string t.subsets))
    (Attack.threat_to_string t.threat)
