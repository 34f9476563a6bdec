open Revizor_emu

type mode = Prime_probe | Flush_reload | Evict_reload | Port_contention
type threat = { mode : mode; assist : bool }

let prime_probe = { mode = Prime_probe; assist = false }
let prime_probe_assist = { mode = Prime_probe; assist = true }
let flush_reload = { mode = Flush_reload; assist = false }
let evict_reload = { mode = Evict_reload; assist = false }
let port_contention = { mode = Port_contention; assist = false }

let mode_to_string = function
  | Prime_probe -> "Prime+Probe"
  | Flush_reload -> "Flush+Reload"
  | Evict_reload -> "Evict+Reload"
  | Port_contention -> "Port-Contention"

let threat_to_string t =
  mode_to_string t.mode ^ if t.assist then "+Assist" else ""

let monitored_lines = Layout.data_pages * Layout.page_size / Layout.cache_line

let line_addr line =
  Int64.add Layout.sandbox_base (Int64.of_int (line * Layout.cache_line))

let observe cpu threat run =
  let cache = Cpu.cache cpu in
  if threat.assist then Page_table.clear_accessed (Cpu.pages cpu) ~page:0;
  (match threat.mode with
  | Prime_probe | Evict_reload -> Cache.prime cache
  | Flush_reload ->
      for line = 0 to monitored_lines - 1 do
        Cache.flush_line cache (line_addr line)
      done
  | Port_contention -> ());
  run ();
  match threat.mode with
  | Prime_probe ->
      let acc = ref Htrace.empty in
      Cache.probe_evicted cache (fun set -> acc := Htrace.add set !acc);
      !acc
  | Flush_reload | Evict_reload ->
      let acc = ref Htrace.empty in
      for line = 0 to monitored_lines - 1 do
        if Cache.contains cache (line_addr line) then acc := Htrace.add line !acc
      done;
      !acc
  | Port_contention ->
      let counts = Cpu.port_counts cpu in
      let acc = ref Htrace.empty in
      Array.iteri
        (fun port count ->
          if count > 0 then
            acc := Htrace.add (Revizor_isa.Ports.observation ~port ~count) !acc)
        counts;
      !acc

let trace_domain = function
  | Prime_probe -> Layout.l1d_sets
  | Flush_reload | Evict_reload -> monitored_lines
  | Port_contention -> Revizor_isa.Ports.n_ports * Revizor_isa.Ports.buckets
