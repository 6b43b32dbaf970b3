// A deliberately unflushed HTAB write. The checked-in baseline under this fixture's
// tools/mmu-lint/baseline.txt accepts it, so the fixture lints clean through the auto-load
// path; pointing --baseline at stale.txt instead exercises the stale/malformed errors.
void LegacyWriter::Stash(VirtPage vp) {
  htab_.Insert(pte, oracle, charger);
}

class HashTable;
class LegacyWriter {
  HashTable htab_;
};
