package asm

import "fmt"

// Section identifies which part of an Image a symbol or relocation lives in.
type Section uint8

const (
	// SecText holds machine code.
	SecText Section = iota
	// SecData holds initialized (and zero-initialized) static data.
	SecData
)

func (s Section) String() string {
	switch s {
	case SecText:
		return ".text"
	case SecData:
		return ".data"
	default:
		return fmt.Sprintf("Section(%d)", uint8(s))
	}
}

// Symbol is a named location in an image.
type Symbol struct {
	Name    string
	Section Section
	Off     uint32 // offset within the section
	Global  bool   // exported to other modules at link time
}

// RelocKind distinguishes absolute from PC-relative fixups.
type RelocKind uint8

const (
	// RelAbs32: store the absolute address of the symbol at Off.
	RelAbs32 RelocKind = iota
	// RelPC32: store symbolAddr - instructionEnd at Off (CALL/JMP rel32).
	RelPC32
)

// Reloc is a pending 32-bit fixup. The loader applies relocations after it
// has chosen base addresses — which is exactly the hook Address Space
// Layout Randomization needs.
type Reloc struct {
	Section  Section // section containing the field to patch
	Off      uint32  // offset of the 32-bit field
	Symbol   string  // target symbol name
	Kind     RelocKind
	InstrEnd uint32 // for RelPC32: offset just past the referencing instruction
}

// Image is the output of the assembler and the input of the loader/linker:
// a relocatable object module.
type Image struct {
	Name    string // module name, for diagnostics
	Text    []byte
	Data    []byte
	Symbols map[string]*Symbol
	Relocs  []Reloc
	// Entries lists symbols designated as protected-module entry points
	// (the paper's Section IV-A); empty for ordinary modules.
	Entries []string
}

// NewImage returns an empty image with the given name.
func NewImage(name string) *Image {
	return &Image{Name: name, Symbols: make(map[string]*Symbol)}
}

// AddSymbol registers a symbol; it fails on duplicates.
func (img *Image) AddSymbol(s Symbol) error {
	if _, dup := img.Symbols[s.Name]; dup {
		return fmt.Errorf("asm: duplicate symbol %q in %s", s.Name, img.Name)
	}
	cp := s
	img.Symbols[s.Name] = &cp
	return nil
}
